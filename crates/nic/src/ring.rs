//! Per-core receive rings.
//!
//! Each core owns one RX ring of `entries` fixed-size buffers, matching the
//! paper's per-core provisioning (Appendix A: *B ∈ [512, 2048] network
//! buffers per core*; §VI-F sweeps down to 128). The ring is the unit whose
//! aggregate footprint determines whether network buffers fit in the DDIO
//! ways — the root cause of network data leaks (§II-C).
//!
//! The NIC is the producer (writing arriving packets into successive slots);
//! the CPU is the consumer. A full ring forces a packet drop, which is
//! exactly the shallow-buffering failure mode studied in §VI-F.

use sweeper_sim::addr::{Addr, AddressMap, RegionKind};

use crate::packet::Packet;

/// A fixed-capacity receive ring backed by a contiguous RX buffer region.
#[derive(Debug, Clone)]
pub struct RxRing {
    base: Addr,
    entry_bytes: u64,
    slots: Vec<Option<Packet>>,
    /// Next slot the NIC writes (producer index, monotonically increasing).
    tail: u64,
    /// Next slot the CPU consumes (consumer index).
    head: u64,
    /// Next slot to be returned to the NIC (`recycled ≤ head`). With
    /// immediate recycling (the default) this tracks `head`; with deferred
    /// recycling the consumer returns slots explicitly via
    /// [`RxRing::recycle_one`] once it is done with the buffer — in
    /// particular after any `relinquish` sweep has executed.
    recycled: u64,
    defer_recycle: bool,
}

impl RxRing {
    /// Allocates the ring's buffer region out of `map` for `core` and builds
    /// an empty ring.
    ///
    /// # Panics
    ///
    /// Panics if `entries` or `entry_bytes` is zero.
    pub fn new(map: &mut AddressMap, core: u16, entries: usize, entry_bytes: u64) -> Self {
        assert!(entries > 0, "ring must have at least one entry");
        assert!(entry_bytes > 0, "ring entries must be non-empty");
        let base = map.alloc(entries as u64 * entry_bytes, RegionKind::Rx { core });
        Self {
            base,
            entry_bytes,
            slots: vec![None; entries],
            tail: 0,
            head: 0,
            recycled: 0,
            defer_recycle: false,
        }
    }

    /// Switches the ring to deferred recycling: popping a packet no longer
    /// frees its slot for the producer; the consumer must call
    /// [`RxRing::recycle_one`] when it is done with the buffer.
    ///
    /// This models a driver that returns descriptors only after the buffer
    /// has been fully processed. It closes the window where the NIC could
    /// overwrite a popped slot *before* the request's deferred `relinquish`
    /// sweep executed — in which case the sweep would destroy the *new*
    /// packet's live data.
    pub fn set_defer_recycle(&mut self, on: bool) {
        self.defer_recycle = on;
        if !on {
            self.recycled = self.head;
        }
    }

    /// Number of entries.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Bytes of one entry.
    pub fn entry_bytes(&self) -> u64 {
        self.entry_bytes
    }

    /// Total buffer footprint in bytes.
    pub fn footprint_bytes(&self) -> u64 {
        self.capacity() as u64 * self.entry_bytes
    }

    /// Packets currently queued (delivered but not yet consumed).
    pub fn occupancy(&self) -> usize {
        (self.tail - self.head) as usize
    }

    /// Popped slots not yet returned to the producer (always zero with
    /// immediate recycling).
    pub fn pending_recycle(&self) -> usize {
        (self.head - self.recycled) as usize
    }

    /// Whether the ring has no free slot. With deferred recycling, popped
    /// but not-yet-recycled slots still count as occupied from the
    /// producer's point of view.
    pub fn is_full(&self) -> bool {
        (self.tail - self.recycled) as usize == self.capacity()
    }

    /// Whether no packets are queued.
    pub fn is_empty(&self) -> bool {
        self.head == self.tail
    }

    /// Base address of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity()`.
    pub fn slot_addr(&self, i: usize) -> Addr {
        assert!(i < self.capacity(), "slot index out of range");
        self.base.offset(i as u64 * self.entry_bytes)
    }

    /// Producer side: claims the next slot for `packet`.
    ///
    /// Returns the slot's buffer address, or `None` (packet drop) if the
    /// ring is full. The caller (the NIC) is responsible for performing the
    /// actual memory-system write.
    pub fn push(&mut self, mut packet: Packet) -> Option<Addr> {
        if self.is_full() {
            return None;
        }
        let idx = (self.tail % self.capacity() as u64) as usize;
        let addr = self.slot_addr(idx);
        packet.addr = addr;
        self.slots[idx] = Some(packet);
        self.tail += 1;
        Some(addr)
    }

    /// Consumer side: takes the oldest queued packet.
    ///
    /// Popping frees the slot for NIC reuse; per §V-A, a Sweeper-enabled
    /// stack must `relinquish` the buffer *before* the slot is recycled,
    /// i.e. before enough subsequent `push`es wrap around to it.
    pub fn pop(&mut self) -> Option<Packet> {
        if self.is_empty() {
            return None;
        }
        let idx = (self.head % self.capacity() as u64) as usize;
        self.head += 1;
        if !self.defer_recycle {
            self.recycled = self.head;
        }
        self.slots[idx].take()
    }

    /// Consumer side (deferred recycling): returns the oldest popped slot to
    /// the producer. Returns `false` if no popped slot is outstanding.
    pub fn recycle_one(&mut self) -> bool {
        if self.recycled < self.head {
            self.recycled += 1;
            true
        } else {
            false
        }
    }

    /// Whether `addr` falls inside this ring's buffer region.
    pub fn contains_addr(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.footprint_bytes()
    }

    /// Verifies the ring's index and slot-occupancy invariants:
    /// `recycled ≤ head ≤ tail ≤ recycled + capacity`, and a slot holds a
    /// packet exactly when its position is inside the `[head, tail)` window.
    pub fn check_consistency(&self) -> Result<(), String> {
        if !(self.recycled <= self.head
            && self.head <= self.tail
            && self.tail <= self.recycled + self.capacity() as u64)
        {
            return Err(format!(
                "ring indices out of order: recycled {} head {} tail {} capacity {}",
                self.recycled,
                self.head,
                self.tail,
                self.capacity()
            ));
        }
        let cap = self.capacity() as u64;
        for (i, slot) in self.slots.iter().enumerate() {
            // Slot `i` sits `(i − head) mod cap` places past the head.
            let queued = (i as u64 + cap - self.head % cap) % cap < self.tail - self.head;
            if queued != slot.is_some() {
                return Err(format!(
                    "slot {i} {} but window [head {}, tail {}) says it should {}be",
                    if slot.is_some() { "occupied" } else { "empty" },
                    self.head,
                    self.tail,
                    if queued { "" } else { "not " },
                ));
            }
        }
        Ok(())
    }

    /// Oldest queued packet without consuming it.
    pub fn peek(&self) -> Option<&Packet> {
        if self.is_empty() {
            return None;
        }
        self.slots[(self.head % self.capacity() as u64) as usize].as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::PacketId;
    use sweeper_sim::addr::RegionKind;

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            core: 0,
            bytes: 1024,
            arrival: id * 10,
            delivered: id * 10 + 1,
            addr: Addr(0),
        }
    }

    fn ring(entries: usize) -> (AddressMap, RxRing) {
        let mut map = AddressMap::new();
        let r = RxRing::new(&mut map, 0, entries, 1024);
        (map, r)
    }

    #[test]
    fn geometry_and_region() {
        let (map, r) = ring(4);
        assert_eq!(r.capacity(), 4);
        assert_eq!(r.entry_bytes(), 1024);
        assert_eq!(r.footprint_bytes(), 4096);
        // Every slot classifies as this core's RX region.
        for i in 0..4 {
            assert_eq!(map.classify(r.slot_addr(i)), RegionKind::Rx { core: 0 });
        }
        // Slots are disjoint, stride = entry size.
        assert_eq!(r.slot_addr(1).0 - r.slot_addr(0).0, 1024);
    }

    #[test]
    fn fifo_order_and_wraparound() {
        let (_m, mut r) = ring(2);
        assert!(r.is_empty());
        let a0 = r.push(pkt(0)).unwrap();
        let a1 = r.push(pkt(1)).unwrap();
        assert!(r.is_full());
        assert!(r.push(pkt(2)).is_none(), "full ring drops");
        assert_eq!(r.pop().unwrap().id, PacketId(0));
        // Freed slot 0 is reused by the next push.
        let a2 = r.push(pkt(3)).unwrap();
        assert_eq!(a2, a0);
        assert_eq!(r.pop().unwrap().addr, a1);
        assert_eq!(r.pop().unwrap().id, PacketId(3));
        assert!(r.pop().is_none());
    }

    #[test]
    fn push_rewrites_packet_addr() {
        let (_m, mut r) = ring(4);
        let addr = r.push(pkt(9)).unwrap();
        assert_eq!(r.peek().unwrap().addr, addr);
        assert_ne!(addr, Addr(0));
    }

    #[test]
    fn occupancy_tracks() {
        let (_m, mut r) = ring(8);
        for i in 0..5 {
            r.push(pkt(i));
        }
        assert_eq!(r.occupancy(), 5);
        r.pop();
        r.pop();
        assert_eq!(r.occupancy(), 3);
        assert!(!r.is_full());
        assert!(!r.is_empty());
    }

    #[test]
    fn multi_lap_wraparound_reuses_slot_addresses() {
        let (_m, mut r) = ring(4);
        // Record the slot addresses of the first lap.
        let first_lap: Vec<Addr> = (0..4).map(|i| r.slot_addr(i)).collect();
        let mut produced = 0;
        for lap in 0..5 {
            for (i, expected) in first_lap.iter().enumerate() {
                let addr = r.push(pkt(produced)).unwrap();
                assert_eq!(
                    addr, *expected,
                    "lap {lap} slot {i} must reuse the same address"
                );
                produced += 1;
            }
            assert!(r.is_full());
            assert_eq!(r.occupancy(), 4);
            // Full-ring drop.
            assert!(r.push(pkt(999)).is_none());
            // Drain fully, in FIFO order, with addresses matching the lap.
            for (i, expected) in first_lap.iter().enumerate() {
                assert_eq!(r.occupancy(), 4 - i);
                let p = r.pop().unwrap();
                assert_eq!(p.addr, *expected);
            }
            assert!(r.is_empty());
            assert_eq!(r.occupancy(), 0);
            r.check_consistency().unwrap();
        }
        assert_eq!(produced, 20);
    }

    #[test]
    fn partial_consume_laps_stay_consistent() {
        // Interleave produce/consume so head and tail wrap at different
        // offsets each lap.
        let (_m, mut r) = ring(3);
        let mut id = 0;
        let mut expected_occupancy = 0usize;
        for _ in 0..10 {
            for _ in 0..2 {
                if r.push(pkt(id)).is_some() {
                    expected_occupancy += 1;
                }
                id += 1;
            }
            if r.pop().is_some() {
                expected_occupancy -= 1;
            }
            assert_eq!(r.occupancy(), expected_occupancy);
            r.check_consistency().unwrap();
        }
    }

    #[test]
    fn check_names_the_slot_a_wrapped_window_disagrees_with() {
        // Nine pushes and seven pops on four slots: head 7, tail 9, so the
        // window wraps past the last slot to cover slots 3 and 0.
        let (_m, mut r) = ring(4);
        for id in 0..9 {
            r.push(pkt(id)).unwrap();
            if id < 7 {
                r.pop().unwrap();
            }
        }
        r.check_consistency().unwrap();
        let queued = r.slots[0].take();
        let err = r.check_consistency().unwrap_err();
        assert!(err.starts_with("slot 0 empty"), "{err}");
        r.slots[0] = queued;
        r.slots[2] = Some(pkt(9));
        let err = r.check_consistency().unwrap_err();
        assert!(err.starts_with("slot 2 occupied"), "{err}");
    }

    #[test]
    fn deferred_recycle_holds_slots_until_returned() {
        let (_m, mut r) = ring(2);
        r.set_defer_recycle(true);
        let a0 = r.push(pkt(0)).unwrap();
        r.push(pkt(1)).unwrap();
        assert!(r.is_full());
        // Popping no longer frees the slot for the producer.
        assert_eq!(r.pop().unwrap().addr, a0);
        assert_eq!(r.occupancy(), 1);
        assert_eq!(r.pending_recycle(), 1);
        assert!(r.is_full(), "popped slot is still reserved");
        assert!(r.push(pkt(2)).is_none(), "producer must drop");
        // Recycling hands exactly that slot back.
        assert!(r.recycle_one());
        assert!(!r.is_full());
        assert_eq!(r.push(pkt(3)).unwrap(), a0);
        // Nothing outstanding: recycle_one reports idle.
        assert!(!r.recycle_one());
        r.check_consistency().unwrap();
    }

    #[test]
    fn immediate_recycle_keeps_legacy_semantics() {
        let (_m, mut r) = ring(2);
        r.push(pkt(0)).unwrap();
        r.push(pkt(1)).unwrap();
        r.pop().unwrap();
        assert_eq!(r.pending_recycle(), 0);
        assert!(!r.is_full(), "immediate mode frees the slot at pop");
        r.check_consistency().unwrap();
    }

    #[test]
    fn contains_addr_covers_exactly_the_ring_region() {
        let (_m, r) = ring(2);
        assert!(r.contains_addr(r.slot_addr(0)));
        assert!(r.contains_addr(r.slot_addr(1).offset(1023)));
        assert!(!r.contains_addr(r.slot_addr(1).offset(1024)));
        assert!(!r.contains_addr(Addr(r.slot_addr(0).0 - 1)));
    }

    #[test]
    #[should_panic(expected = "slot index out of range")]
    fn slot_addr_bounds() {
        let (_m, r) = ring(2);
        r.slot_addr(2);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_entries_rejected() {
        let mut map = AddressMap::new();
        RxRing::new(&mut map, 0, 0, 1024);
    }
}
