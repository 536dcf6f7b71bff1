//! The overwrite-oldest ring every recorder in the workspace keeps its
//! window in: memory-event traces ([`Trace`](crate::trace::Trace)), request
//! spans ([`SpanRing`](crate::span::SpanRing)) and the server's sampled
//! time series.
//!
//! A ring holds the last `capacity` items and counts every item recorded
//! since it was created, so `recorded() > len()` exactly when items were
//! lost: overwritten when the window overflowed, or discarded by `clear`.
//! Its storage is reserved up front: recording never allocates.

/// Bounded overwrite-oldest ring of recorded items.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ring<T> {
    buf: Vec<T>,
    capacity: usize,
    head: usize,
    recorded: u64,
}

impl<T: Clone> Ring<T> {
    /// A ring retaining the last `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        Self {
            buf: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            recorded: 0,
        }
    }

    /// Records one item, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.head] = item;
            self.head = (self.head + 1) % self.capacity;
        }
        self.recorded += 1;
    }

    /// Items recorded since the ring was created, including those that fell
    /// out of the window or were discarded by [`Ring::clear`].
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no items are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.buf[self.head..].iter().chain(&self.buf[..self.head])
    }

    /// Retained items, oldest first.
    pub fn events(&self) -> Vec<T> {
        self.last(self.len())
    }

    /// The newest `n` retained items (all of them if fewer), oldest first.
    pub fn last(&self, n: usize) -> Vec<T> {
        self.iter()
            .skip(self.len().saturating_sub(n))
            .cloned()
            .collect()
    }

    /// Discards every retained item. The count keeps them, so a cleared
    /// ring still reports that items were lost.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(capacity: usize, n: u32) -> Ring<u32> {
        let mut r = Ring::new(capacity);
        (0..n).for_each(|i| r.record(i));
        r
    }

    #[test]
    fn records_in_order_until_capacity() {
        let r = filled(4, 3);
        assert_eq!(r.events(), vec![0, 1, 2]);
        assert_eq!((r.len(), r.recorded()), (3, 3));
    }

    #[test]
    fn keeps_the_most_recent_window() {
        let r = filled(4, 10);
        assert_eq!(r.events(), vec![6, 7, 8, 9]);
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), r.events());
        assert_eq!((r.len(), r.recorded()), (4, 10));
    }

    #[test]
    fn last_copies_only_the_newest_items() {
        let r = filled(4, 10);
        assert_eq!(r.last(2), vec![8, 9]);
        assert_eq!(r.last(9), r.events());
        assert!(r.last(0).is_empty());
    }

    #[test]
    fn clear_keeps_the_count() {
        let mut r = filled(2, 5);
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.recorded(), 5);
        r.record(7);
        assert_eq!((r.events(), r.recorded()), (vec![7], 6));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        Ring::<u32>::new(0);
    }
}
