//! Property-based tests for the NIC model: ring FIFO semantics against a
//! reference deque, Poisson arrival statistics, and queue-pair bounds.

use proptest::collection::vec;
use proptest::prelude::*;

use sweeper_nic::packet::{Packet, PacketId};
use sweeper_nic::ring::RxRing;
use sweeper_nic::traffic::PoissonArrivals;
use sweeper_sim::addr::{Addr, AddressMap};
use sweeper_sim::engine::{SimRng, CLOCK_HZ};

fn pkt(id: u64) -> Packet {
    Packet {
        id: PacketId(id),
        core: 0,
        bytes: 64,
        arrival: id,
        delivered: id,
        addr: Addr(0),
    }
}

proptest! {
    /// The RX ring behaves exactly like a bounded FIFO of its capacity, and
    /// every slot address it hands out is within its footprint, aligned to
    /// the entry stride.
    #[test]
    fn ring_is_a_bounded_fifo(capacity in 1usize..32, ops in vec(any::<bool>(), 1..300)) {
        let mut map = AddressMap::new();
        let mut ring = RxRing::new(&mut map, 0, capacity, 256);
        let base = ring.slot_addr(0);
        let mut model = std::collections::VecDeque::new();
        let mut next_id = 0u64;
        for push in ops {
            if push {
                match ring.push(pkt(next_id)) {
                    Some(addr) => {
                        prop_assert!(model.len() < capacity);
                        prop_assert_eq!((addr.0 - base.0) % 256, 0);
                        prop_assert!(addr.0 < base.0 + capacity as u64 * 256);
                        model.push_back(next_id);
                    }
                    None => prop_assert_eq!(model.len(), capacity),
                }
                next_id += 1;
            } else {
                let got = ring.pop().map(|p| p.id.0);
                prop_assert_eq!(got, model.pop_front());
            }
            prop_assert_eq!(ring.occupancy(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.is_full(), model.len() == capacity);
            prop_assert_eq!(ring.peek().map(|p| p.id.0), model.front().copied());
        }
    }

    /// Poisson arrivals: strictly increasing timestamps whose empirical rate
    /// converges on the configured rate.
    #[test]
    fn poisson_rate_converges(rate_mpps in 1.0f64..200.0, seed in any::<u64>()) {
        let rate = rate_mpps * 1e6;
        let mut gen = PoissonArrivals::new(rate, SimRng::seeded(seed));
        let n = 20_000u64;
        let mut prev = 0;
        for _ in 0..n {
            let t = gen.next_arrival();
            prop_assert!(t >= prev);
            prev = t;
        }
        let observed = n as f64 * CLOCK_HZ as f64 / prev as f64;
        prop_assert!(
            (observed - rate).abs() < rate * 0.05,
            "observed {observed:.0} vs configured {rate:.0}"
        );
    }
}
