//! Simulation clock helpers, deterministic RNG, and a generic event queue.
//!
//! The substrate is a discrete-time simulation: every component reasons in CPU
//! cycles ([`Cycle`]). Wall-clock conversions assume the paper's 3.2 GHz core
//! clock unless a different frequency is supplied explicitly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::Cycle;

/// CPU clock frequency of the simulated server, in Hz (Table I: 3.2 GHz).
pub const CLOCK_HZ: u64 = 3_200_000_000;

/// Converts a duration in nanoseconds to CPU cycles (rounding up).
///
/// ```
/// use sweeper_sim::engine::ns_to_cycles;
/// assert_eq!(ns_to_cycles(1000.0), 3200);
/// ```
pub fn ns_to_cycles(ns: f64) -> Cycle {
    (ns * CLOCK_HZ as f64 / 1e9).ceil() as Cycle
}

/// Converts CPU cycles to nanoseconds.
///
/// ```
/// use sweeper_sim::engine::cycles_to_ns;
/// assert!((cycles_to_ns(3200) - 1000.0).abs() < 1e-9);
/// ```
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 * 1e9 / CLOCK_HZ as f64
}

/// Converts CPU cycles to seconds.
pub fn cycles_to_secs(cycles: Cycle) -> f64 {
    cycles as f64 / CLOCK_HZ as f64
}

/// Converts microseconds to CPU cycles (rounding up).
pub fn us_to_cycles(us: f64) -> Cycle {
    ns_to_cycles(us * 1e3)
}

/// Deterministic simulation RNG.
///
/// Every stochastic component (traffic generator, key popularity, service-time
/// spikes) draws from a [`SimRng`] seeded from the experiment configuration,
/// so a simulation run is exactly reproducible.
///
/// ```
/// use sweeper_sim::engine::SimRng;
/// let mut a = SimRng::seeded(7);
/// let mut b = SimRng::seeded(7);
/// assert_eq!(a.next_u64_in(100), b.next_u64_in(100));
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Creates an RNG from a 64-bit seed.
    pub fn seeded(seed: u64) -> Self {
        Self {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child RNG; useful to give each simulated
    /// component its own stream without correlation.
    pub fn fork(&mut self) -> Self {
        Self::seeded(self.inner.gen())
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_u64_in(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.inner.gen_range(0..bound)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Exponentially distributed sample with the given mean.
    ///
    /// Used for Poisson inter-arrival times of the traffic generator
    /// (Appendix A: "injects packets at configurable Poisson arrival rate").
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::EPSILON..1.0);
        -mean * u.ln()
    }

    /// Returns `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.inner.gen::<f64>() < p
    }
}

/// A time-ordered event queue.
///
/// Events with equal timestamps are popped in insertion order (FIFO), which
/// keeps simulations deterministic regardless of heap internals.
///
/// ```
/// use sweeper_sim::engine::EventQueue;
/// let mut q = EventQueue::new();
/// q.push(20, "b");
/// q.push(10, "a");
/// q.push(20, "c");
/// assert_eq!(q.pop(), Some((10, "a")));
/// assert_eq!(q.pop(), Some((20, "b")));
/// assert_eq!(q.pop(), Some((20, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    seq: u64,
}

#[derive(Debug, Clone)]
struct Entry<T> {
    at: Cycle,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Creates an empty queue with pre-reserved heap capacity, so a
    /// `push`-heavy simulation loop whose population bound is known up
    /// front never reallocates mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            heap: BinaryHeap::with_capacity(capacity),
            seq: 0,
        }
    }

    /// Schedules `payload` at cycle `at`.
    pub fn push(&mut self, at: Cycle, payload: T) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Entry { at, seq, payload }));
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, T)> {
        self.heap.pop().map(|Reverse(e)| (e.at, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversions_round_trip() {
        assert_eq!(ns_to_cycles(0.0), 0);
        assert_eq!(ns_to_cycles(1.0), 4); // 3.2 cycles rounds up to 4
        assert_eq!(us_to_cycles(1.0), 3200);
        let c = 123_456;
        let back = ns_to_cycles(cycles_to_ns(c));
        assert_eq!(back, c);
    }

    #[test]
    fn cycles_to_secs_matches_clock() {
        assert!((cycles_to_secs(CLOCK_HZ) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = SimRng::seeded(42);
        let mut b = SimRng::seeded(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64_in(1000), b.next_u64_in(1000));
        }
    }

    #[test]
    fn rng_fork_decorrelates() {
        let mut a = SimRng::seeded(42);
        let mut child = a.fork();
        // The child stream must differ from the parent's subsequent stream.
        let parent_draws: Vec<u64> = (0..8).map(|_| a.next_u64_in(u64::MAX)).collect();
        let child_draws: Vec<u64> = (0..8).map(|_| child.next_u64_in(u64::MAX)).collect();
        assert_ne!(parent_draws, child_draws);
    }

    #[test]
    fn exp_mean_is_approximately_right() {
        let mut rng = SimRng::seeded(1);
        let n = 100_000;
        let mean = 50.0;
        let sum: f64 = (0..n).map(|_| rng.next_exp(mean)).sum();
        let observed = sum / n as f64;
        assert!(
            (observed - mean).abs() < mean * 0.05,
            "observed mean {observed} too far from {mean}"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seeded(9);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn event_queue_orders_by_time() {
        let mut q = EventQueue::new();
        q.push(5, 'b');
        q.push(1, 'a');
        q.push(9, 'c');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn event_queue_fifo_for_ties() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.push(7, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn event_queue_len_and_peek() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(3, ());
        q.push(2, ());
        assert_eq!(q.len(), 2);
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn rng_zero_bound_panics() {
        SimRng::seeded(0).next_u64_in(0);
    }
}
