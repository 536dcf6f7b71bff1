//! Traffic generation: arrival processes.
//!
//! The paper's load generator "injects packets at configurable Poisson
//! arrival rate" (Appendix A). For the premature-buffer-eviction studies
//! (§IV-B) the generator is modified to keep each core's RX queue topped up
//! to a batching depth *D*; that mode is [`ArrivalProcess::KeepQueued`] and
//! is driven by the server loop rather than by timestamps.

use sweeper_sim::engine::{SimRng, CLOCK_HZ};
use sweeper_sim::Cycle;

/// How packets arrive at the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Open-loop Poisson arrivals at `rate` packets per second, aggregate
    /// over all cores.
    Poisson {
        /// Aggregate packet arrival rate (packets/second).
        rate: f64,
    },
    /// Closed-loop "keep-queued" injection: whenever a core's RX queue holds
    /// fewer than `depth` unconsumed packets, inject immediately (§IV-B's
    /// batching-of-degree-D emulation).
    KeepQueued {
        /// Target unconsumed-packet depth per core.
        depth: usize,
    },
}

/// Generates packet arrival times for a Poisson process.
///
/// ```
/// use sweeper_nic::traffic::PoissonArrivals;
/// use sweeper_sim::engine::SimRng;
///
/// let mut gen = PoissonArrivals::new(1_000_000.0, SimRng::seeded(1));
/// let t1 = gen.next_arrival();
/// let t2 = gen.next_arrival();
/// assert!(t2 > t1);
/// ```
#[derive(Debug, Clone)]
pub struct PoissonArrivals {
    mean_gap_cycles: f64,
    next: f64,
    rng: SimRng,
}

impl PoissonArrivals {
    /// Creates a generator for `rate` packets per second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not positive and finite.
    pub fn new(rate: f64, rng: SimRng) -> Self {
        assert!(
            rate.is_finite() && rate > 0.0,
            "arrival rate must be positive"
        );
        Self {
            mean_gap_cycles: CLOCK_HZ as f64 / rate,
            next: 0.0,
            rng,
        }
    }

    /// Returns the next arrival timestamp (cycles), strictly increasing.
    pub fn next_arrival(&mut self) -> Cycle {
        self.next += self
            .rng
            .next_exp(self.mean_gap_cycles)
            .max(f64::MIN_POSITIVE);
        self.next.ceil() as Cycle
    }

    /// The configured mean inter-arrival gap in cycles.
    pub fn mean_gap_cycles(&self) -> f64 {
        self.mean_gap_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_rate_is_respected() {
        let rate = 10_000_000.0; // 10 Mpps
        let mut gen = PoissonArrivals::new(rate, SimRng::seeded(3));
        let n = 100_000;
        let mut last = 0;
        for _ in 0..n {
            last = gen.next_arrival();
        }
        let observed_rate = n as f64 * CLOCK_HZ as f64 / last as f64;
        assert!(
            (observed_rate - rate).abs() < rate * 0.02,
            "observed {observed_rate}, wanted {rate}"
        );
    }

    #[test]
    fn poisson_arrivals_strictly_increase() {
        let mut gen = PoissonArrivals::new(1e9, SimRng::seeded(5));
        let mut prev = 0;
        for _ in 0..10_000 {
            let t = gen.next_arrival();
            assert!(t >= prev);
            prev = t;
        }
    }

    #[test]
    fn poisson_is_deterministic_per_seed() {
        let a: Vec<Cycle> = {
            let mut g = PoissonArrivals::new(1e6, SimRng::seeded(11));
            (0..100).map(|_| g.next_arrival()).collect()
        };
        let b: Vec<Cycle> = {
            let mut g = PoissonArrivals::new(1e6, SimRng::seeded(11));
            (0..100).map(|_| g.next_arrival()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn poisson_rejects_zero_rate() {
        PoissonArrivals::new(0.0, SimRng::seeded(0));
    }

    #[test]
    fn keep_queued_process_is_plain_data() {
        let p = ArrivalProcess::KeepQueued { depth: 250 };
        assert_eq!(p, ArrivalProcess::KeepQueued { depth: 250 });
    }
}
