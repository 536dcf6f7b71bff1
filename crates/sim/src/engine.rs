//! Simulation clock helpers, deterministic RNG, and a generic event queue.
//!
//! The substrate is a discrete-time simulation: every component reasons in CPU
//! cycles ([`Cycle`]). Wall-clock conversions assume the paper's 3.2 GHz core
//! clock unless a different frequency is supplied explicitly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The deterministic simulation RNG, re-exported from `sweeper-rng` so that
/// every component draws through `sweeper_sim::engine`.
pub use sweeper_rng::SimRng;

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
}
