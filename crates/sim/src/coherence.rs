//! Sparse full-map coherence directory.
//!
//! The hierarchy needs to know which cores' *private* caches hold a block so
//! that writes invalidate remote sharers, NIC writes invalidate stale CPU
//! copies, dirty data is forwarded core-to-core, and — crucially for Sweeper —
//! a `sweep` message can invalidate every copy of a buffer block (§V-B).
//!
//! The directory is sparse (keyed by block) and unbounded; this
//! over-approximates a real sparse directory but never misses a copy, which
//! is the property correctness depends on. The model keeps L1 ⊆ L2
//! (back-invalidation on L2 eviction), so "private residency" is equivalent
//! to L2 residency and the directory tracks exactly that.
//!
//! # Hot-path implementation
//!
//! Every CPU access, NIC injection, and sweep consults the directory, so
//! [`Directory`] is a flat open-addressed table (linear probing,
//! backward-shift deletion) keyed by the same Fibonacci multiplicative hash
//! the caches use for set indexing — one multiply instead of SipHash per
//! probe, and no per-entry boxing. Sharer sets are returned as [`SharerSet`],
//! a `Copy` 64-bit mask iterated in place, so no coherence operation
//! allocates. Each slot is one 8-byte word (sharer mask, owner and block
//! packed together), so the paper machine's 2^20 slots take 8 MiB. The
//! table starts all-zero (an all-zero slot is empty), so building a
//! directory writes nothing, and the memory system sizes it once with
//! [`Directory::with_capacity`] for every private L2 line, so a run never
//! rehashes it. [`ReferenceDirectory`]
//! preserves the original `HashMap`-backed implementation as the oracle for
//! differential tests.

use std::collections::HashMap;

use crate::addr::BlockAddr;
use crate::table::{ZeroTable, Zeroable};

/// Maximum cores a sharer bitmask supports: Table I's 24, the width of a
/// directory slot's sharer field.
pub const MAX_CORES: usize = 24;

/// The multiplier of Fibonacci hashing (⌊2^64/φ⌋), shared with the cache set
/// hash. The *high* product bits are used: the low bits of a multiplicative
/// hash merely permute the low input bits, so power-of-two-strided block
/// addresses (per-core rings) would collide on a handful of probe sequences.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// A set of core ids holding a block, as a `Copy` 64-bit mask.
///
/// Replaces the `Vec<u16>` the coherence API used to return — one heap
/// allocation per coherence event, including every swept block. Iterates
/// ascending, matching the old vector order.
///
/// ```
/// use sweeper_sim::coherence::SharerSet;
/// let s = SharerSet::from_mask(0b1010_0001);
/// assert_eq!(s.to_vec(), vec![0, 5, 7]);
/// assert_eq!(s.len(), 3);
/// assert!(s.contains(5) && !s.contains(1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SharerSet(u64);

impl SharerSet {
    /// The empty set.
    pub const EMPTY: SharerSet = SharerSet(0);

    /// Builds a set from a raw bitmask (bit `i` = core `i`).
    pub fn from_mask(mask: u64) -> Self {
        Self(mask)
    }

    /// The raw bitmask.
    pub fn mask(self) -> u64 {
        self.0
    }

    /// Whether no core is in the set.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of cores in the set.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Whether `core` is in the set.
    pub fn contains(self, core: u16) -> bool {
        (core as usize) < MAX_CORES && self.0 & (1 << core) != 0
    }

    /// The set minus `core`.
    pub fn without(self, core: u16) -> SharerSet {
        if (core as usize) < MAX_CORES {
            SharerSet(self.0 & !(1 << core))
        } else {
            self
        }
    }

    /// Iterates core ids ascending.
    pub fn iter(self) -> SharerIter {
        SharerIter(self.0)
    }

    /// Collects into a vector (tests and diagnostics; the hot path iterates).
    pub fn to_vec(self) -> Vec<u16> {
        self.iter().collect()
    }
}

impl IntoIterator for SharerSet {
    type Item = u16;
    type IntoIter = SharerIter;

    fn into_iter(self) -> SharerIter {
        self.iter()
    }
}

/// Ascending iterator over a [`SharerSet`]'s core ids.
#[derive(Debug, Clone)]
pub struct SharerIter(u64);

impl Iterator for SharerIter {
    type Item = u16;

    fn next(&mut self) -> Option<u16> {
        if self.0 == 0 {
            None
        } else {
            let i = self.0.trailing_zeros() as u16;
            self.0 &= self.0 - 1;
            Some(i)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.0.count_ones() as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for SharerIter {}

/// One open-addressed table slot: a single `u64` packing, LSB first, the
/// sharer mask (bits 0..24, bit `c` = core `c`), the dirty-owner code (bits
/// 24..29: 0 = no dirty owner, `c + 1` = core `c`) and the block address
/// (bits 29..64, so blocks must fit in 35 bits). A zero sharer mask marks
/// the slot empty — valid because the directory removes an entry the moment
/// its last sharer leaves, so a stored entry always has a nonzero mask — and
/// an empty slot is all-zero, so a fresh table needs no initialisation pass.
#[derive(Debug, Clone, Copy)]
struct Slot(u64);

// SAFETY: `Slot` is one `u64`; all-zero is the valid empty slot.
unsafe impl Zeroable for Slot {}

const SHARER_MASK: u64 = (1 << MAX_CORES) - 1;
const OWNER_SHIFT: u32 = MAX_CORES as u32;
const OWNER_BITS: u32 = 5;
const OWNER_MASK: u64 = ((1 << OWNER_BITS) - 1) << OWNER_SHIFT;
const BLOCK_SHIFT: u32 = OWNER_SHIFT + OWNER_BITS;

const _: () = assert!(MAX_CORES < 1 << OWNER_BITS, "owner codes run to MAX_CORES");
const _: () = assert!(
    crate::addr::MAX_BLOCKS <= 1 << (64 - BLOCK_SHIFT),
    "every block below the address limit has a key"
);

const EMPTY_SLOT: Slot = Slot(0);

impl Slot {
    /// A slot for `block` with no sharers yet.
    fn claimed(block: u64) -> Slot {
        Slot(block << BLOCK_SHIFT)
    }

    #[inline]
    fn block(self) -> u64 {
        self.0 >> BLOCK_SHIFT
    }

    #[inline]
    fn sharers(self) -> u64 {
        self.0 & SHARER_MASK
    }

    #[inline]
    fn is_empty(self) -> bool {
        self.sharers() == 0
    }

    fn set_sharers(&mut self, mask: u64) {
        debug_assert!(mask & !SHARER_MASK == 0, "sharer mask wider than MAX_CORES");
        self.0 = self.0 & !SHARER_MASK | mask;
    }

    fn owner(self) -> Option<u16> {
        match (self.0 & OWNER_MASK) >> OWNER_SHIFT {
            0 => None,
            code => Some(code as u16 - 1),
        }
    }

    fn set_owner(&mut self, owner: Option<u16>) {
        let code = owner.map_or(0, |core| u64::from(core) + 1);
        self.0 = self.0 & !OWNER_MASK | code << OWNER_SHIFT;
    }
}

/// Smallest table [`Directory::new`] and [`Directory::with_capacity`] build
/// (a power of two). The table grows by doubling at 7/8 load.
const MIN_CAPACITY: usize = 16;

/// Sparse directory over private-cache residency.
///
/// ```
/// use sweeper_sim::coherence::Directory;
/// use sweeper_sim::addr::BlockAddr;
///
/// let mut dir = Directory::new();
/// let b = BlockAddr(5);
/// dir.add_sharer(b, 0);
/// dir.add_sharer(b, 3);
/// assert_eq!(dir.sharers(b).to_vec(), vec![0, 3]);
/// assert_eq!(dir.sharers(b).without(0).to_vec(), vec![3]);
/// ```
#[derive(Debug, Clone)]
pub struct Directory {
    slots: ZeroTable<Slot>,
    len: usize,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// Creates an empty directory of the minimum size; it grows as blocks
    /// are added.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty directory that tracks up to `entries` blocks without
    /// growing. [`MemorySystem`](crate::hierarchy::MemorySystem) sizes its
    /// directory for every private L2 line, so a run never rehashes it.
    pub fn with_capacity(entries: usize) -> Self {
        // Growth triggers once `(len + 1) * 8 > slots * 7`.
        let slots = (entries * 8)
            .div_ceil(7)
            .max(MIN_CAPACITY)
            .next_power_of_two();
        Self {
            slots: ZeroTable::new(slots),
            len: 0,
        }
    }

    /// Number of table slots (a power of two; diagnostics and tests).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    fn home(&self, block: u64) -> usize {
        ((block.wrapping_mul(FIB) >> 32) as usize) & (self.slots.len() - 1)
    }

    /// Hints the host CPU to pull `block`'s probe neighborhood into cache.
    /// The paper machine's table is 8 MiB, so an un-prefetched probe is
    /// usually a host memory stall; see
    /// [`SetAssocCache::prefetch`](crate::cache::SetAssocCache::prefetch)
    /// for the pattern. No simulated state changes.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        let i = self.home(block.0);
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.slots.as_ptr().add(i).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = i;
    }

    /// Index of `block`'s slot, if present.
    #[inline]
    fn find(&self, block: u64) -> Option<usize> {
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let s = self.slots[i];
            if s.is_empty() {
                return None;
            }
            if s.block() == block {
                return Some(i);
            }
            i = (i + 1) & mask;
        }
    }

    /// Index of `block`'s slot, claiming an empty one if absent. The caller
    /// must leave the slot with a nonzero sharer mask (an all-zero mask
    /// would read as empty and corrupt later probes).
    #[inline]
    fn find_or_claim(&mut self, block: u64) -> usize {
        assert!(
            block >> (64 - BLOCK_SHIFT) == 0,
            "block address too large for the directory key"
        );
        // Keep load ≤ 7/8 so probe sequences stay short and one empty slot
        // always terminates the scan.
        if (self.len + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let s = &mut self.slots[i];
            if s.is_empty() {
                *s = Slot::claimed(block);
                self.len += 1;
                return i;
            }
            if s.block() == block {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let doubled = ZeroTable::new(self.slots.len() * 2);
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for s in old.iter().filter(|s| !s.is_empty()) {
            let mut i = self.home(s.block());
            while !self.slots[i].is_empty() {
                i = (i + 1) & mask;
            }
            self.slots[i] = *s;
        }
    }

    /// Deletes the entry at `i` by backward-shifting the probe chain, so no
    /// tombstones accumulate and probe lengths stay tied to load.
    fn remove_at(&mut self, mut i: usize) {
        let mask = self.slots.len() - 1;
        self.len -= 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let s = self.slots[j];
            if s.is_empty() {
                break;
            }
            // Move `s` into the hole unless its home lies in (i, j] — then
            // the hole does not break its probe chain.
            let home = self.home(s.block());
            if (j.wrapping_sub(home) & mask) >= (j.wrapping_sub(i) & mask) {
                self.slots[i] = s;
                i = j;
            }
        }
        self.slots[i] = EMPTY_SLOT;
    }

    /// Records that `core`'s private caches now hold `block`.
    ///
    /// # Panics
    ///
    /// Panics if `core >= MAX_CORES`.
    pub fn add_sharer(&mut self, block: BlockAddr, core: u16) {
        assert!((core as usize) < MAX_CORES, "core id out of range");
        let i = self.find_or_claim(block.0);
        let s = &mut self.slots[i];
        s.set_sharers(s.sharers() | 1 << core);
    }

    /// Records that `core` no longer holds `block`; clears dirty ownership if
    /// `core` was the owner. Removes the entry once no sharers remain.
    pub fn remove_sharer(&mut self, block: BlockAddr, core: u16) {
        if let Some(i) = self.find(block.0) {
            let s = &mut self.slots[i];
            s.set_sharers(s.sharers() & !(1 << core));
            if s.owner() == Some(core) {
                s.set_owner(None);
            }
            if s.is_empty() {
                self.remove_at(i);
            }
        }
    }

    /// Marks `core` as holding the only dirty private copy.
    ///
    /// The caller must have already invalidated other sharers (see
    /// [`Directory::sharers`]); this method enforces that by resetting the
    /// sharer set to `{core}`.
    pub fn set_dirty_owner(&mut self, block: BlockAddr, core: u16) {
        assert!((core as usize) < MAX_CORES, "core id out of range");
        let i = self.find_or_claim(block.0);
        self.slots[i].set_sharers(1 << core);
        self.slots[i].set_owner(Some(core));
    }

    /// Downgrades a dirty owner to a plain sharer (e.g. after its data was
    /// forwarded or written back).
    pub fn clear_dirty(&mut self, block: BlockAddr) {
        if let Some(i) = self.find(block.0) {
            self.slots[i].set_owner(None);
        }
    }

    /// The core holding a dirty private copy, if any.
    pub fn dirty_owner(&self, block: BlockAddr) -> Option<u16> {
        self.find(block.0).and_then(|i| self.slots[i].owner())
    }

    /// All cores holding the block, ascending.
    pub fn sharers(&self, block: BlockAddr) -> SharerSet {
        match self.find(block.0) {
            None => SharerSet::EMPTY,
            Some(i) => SharerSet(self.slots[i].sharers()),
        }
    }

    /// Removes all tracking for the block, returning the previous sharers.
    /// Used by sweeps and NIC writes that invalidate every CPU copy.
    pub fn drop_block(&mut self, block: BlockAddr) -> SharerSet {
        match self.find(block.0) {
            None => SharerSet::EMPTY,
            Some(i) => {
                let sharers = self.slots[i].sharers();
                self.remove_at(i);
                SharerSet(sharers)
            }
        }
    }

    /// Number of tracked blocks (diagnostics).
    pub fn tracked_blocks(&self) -> usize {
        self.len
    }

    /// Iterates every tracked entry as `(block, sharers, dirty_owner)` —
    /// lets the correctness harness cross-check the directory against
    /// actual private-cache residency. Iteration order is unspecified.
    pub fn iter_entries(&self) -> impl Iterator<Item = (BlockAddr, SharerSet, Option<u16>)> + '_ {
        self.slots
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| (BlockAddr(s.block()), SharerSet(s.sharers()), s.owner()))
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct DirEntry {
    sharers: u64,
    dirty_owner: Option<u16>,
}

/// The original `HashMap`-backed directory, kept as the oracle for
/// differential tests of [`Directory`]. Same API, same semantics, SipHash
/// and per-operation allocation — do not use on hot paths.
#[derive(Debug, Clone, Default)]
pub struct ReferenceDirectory {
    entries: HashMap<u64, DirEntry>,
}

impl ReferenceDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`Directory::add_sharer`].
    ///
    /// # Panics
    ///
    /// Panics if `core >= MAX_CORES`.
    pub fn add_sharer(&mut self, block: BlockAddr, core: u16) {
        assert!((core as usize) < MAX_CORES, "core id out of range");
        let e = self.entries.entry(block.0).or_default();
        e.sharers |= 1 << core;
    }

    /// See [`Directory::remove_sharer`].
    pub fn remove_sharer(&mut self, block: BlockAddr, core: u16) {
        if let Some(e) = self.entries.get_mut(&block.0) {
            e.sharers &= !(1 << core);
            if e.dirty_owner == Some(core) {
                e.dirty_owner = None;
            }
            if e.sharers == 0 {
                self.entries.remove(&block.0);
            }
        }
    }

    /// See [`Directory::set_dirty_owner`].
    ///
    /// # Panics
    ///
    /// Panics if `core >= MAX_CORES`.
    pub fn set_dirty_owner(&mut self, block: BlockAddr, core: u16) {
        assert!((core as usize) < MAX_CORES, "core id out of range");
        let e = self.entries.entry(block.0).or_default();
        e.sharers = 1 << core;
        e.dirty_owner = Some(core);
    }

    /// See [`Directory::clear_dirty`].
    pub fn clear_dirty(&mut self, block: BlockAddr) {
        if let Some(e) = self.entries.get_mut(&block.0) {
            e.dirty_owner = None;
        }
    }

    /// See [`Directory::dirty_owner`].
    pub fn dirty_owner(&self, block: BlockAddr) -> Option<u16> {
        self.entries.get(&block.0).and_then(|e| e.dirty_owner)
    }

    /// See [`Directory::sharers`].
    pub fn sharers(&self, block: BlockAddr) -> SharerSet {
        match self.entries.get(&block.0) {
            None => SharerSet::EMPTY,
            Some(e) => SharerSet(e.sharers),
        }
    }

    /// See [`Directory::drop_block`].
    pub fn drop_block(&mut self, block: BlockAddr) -> SharerSet {
        match self.entries.remove(&block.0) {
            None => SharerSet::EMPTY,
            Some(e) => SharerSet(e.sharers),
        }
    }

    /// See [`Directory::tracked_blocks`].
    pub fn tracked_blocks(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const B: BlockAddr = BlockAddr(77);

    #[test]
    fn add_remove_sharers() {
        let mut d = Directory::new();
        assert!(d.sharers(B).is_empty());
        d.add_sharer(B, 1);
        d.add_sharer(B, 5);
        d.add_sharer(B, 5); // idempotent
        assert_eq!(d.sharers(B).to_vec(), vec![1, 5]);
        assert!(!d.sharers(B).without(1).is_empty());
        d.remove_sharer(B, 1);
        assert_eq!(d.sharers(B).to_vec(), vec![5]);
        assert!(d.sharers(B).without(5).is_empty());
        d.remove_sharer(B, 5);
        assert!(d.sharers(B).is_empty());
        assert_eq!(d.tracked_blocks(), 0);
    }

    #[test]
    fn dirty_ownership_lifecycle() {
        let mut d = Directory::new();
        d.add_sharer(B, 2);
        d.add_sharer(B, 3);
        // Core 3 writes: becomes exclusive dirty owner.
        d.set_dirty_owner(B, 3);
        assert_eq!(d.dirty_owner(B), Some(3));
        assert_eq!(
            d.sharers(B).to_vec(),
            vec![3],
            "set_dirty_owner makes exclusive"
        );
        // Forwarding downgrades the owner.
        d.clear_dirty(B);
        assert_eq!(d.dirty_owner(B), None);
        assert_eq!(d.sharers(B).to_vec(), vec![3]);
    }

    #[test]
    fn removing_owner_clears_dirty() {
        let mut d = Directory::new();
        d.set_dirty_owner(B, 4);
        d.remove_sharer(B, 4);
        assert_eq!(d.dirty_owner(B), None);
        assert!(d.sharers(B).is_empty());
    }

    #[test]
    fn others_excludes_requester() {
        let mut d = Directory::new();
        for c in [0u16, 7, 23] {
            d.add_sharer(B, c);
        }
        assert_eq!(d.sharers(B).without(7).to_vec(), vec![0, 23]);
        assert_eq!(d.sharers(B).without(1).to_vec(), vec![0, 7, 23]);
        assert!(d.sharers(BlockAddr(123)).without(0).is_empty());
    }

    #[test]
    fn drop_block_returns_all_sharers() {
        let mut d = Directory::new();
        d.add_sharer(B, 0);
        d.add_sharer(B, 9);
        d.set_dirty_owner(B, 9);
        let dropped = d.drop_block(B);
        assert_eq!(dropped.to_vec(), vec![9], "owner was exclusive");
        assert!(d.sharers(B).is_empty());
        assert!(d.drop_block(B).is_empty());
    }

    #[test]
    #[should_panic(expected = "core id out of range")]
    fn rejects_large_core_ids() {
        Directory::new().add_sharer(B, 64);
    }

    #[test]
    fn sharer_set_basics() {
        assert!(SharerSet::EMPTY.is_empty());
        assert_eq!(SharerSet::from_mask(0).to_vec(), Vec::<u16>::new());
        assert_eq!(SharerSet::from_mask(0b1).to_vec(), vec![0]);
        assert_eq!(SharerSet::from_mask(0b1010_0001).to_vec(), vec![0, 5, 7]);
        assert_eq!(SharerSet::from_mask(0b1010_0001).len(), 3);
        assert_eq!(SharerSet::from_mask(0b11).without(0).to_vec(), vec![1]);
        assert_eq!(SharerSet::from_mask(0b11).iter().len(), 2);
        assert!(SharerSet::from_mask(1 << 23).contains(23));
        assert!(!SharerSet::from_mask(u64::MAX).contains(24));
    }

    #[test]
    fn block_zero_is_a_valid_key() {
        // The empty-slot marker is `sharers == 0`, not the block id, so
        // block 0 must round-trip like any other key.
        let mut d = Directory::new();
        d.add_sharer(BlockAddr(0), 2);
        assert!(!d.sharers(BlockAddr(0)).is_empty());
        assert_eq!(d.sharers(BlockAddr(0)).to_vec(), vec![2]);
        assert_eq!(d.drop_block(BlockAddr(0)).to_vec(), vec![2]);
        assert!(d.sharers(BlockAddr(0)).is_empty());
    }

    #[test]
    fn growth_beyond_initial_capacity() {
        // Insert far more blocks than the minimum table holds, with the
        // stride-2^15 addresses of per-core rings that stress the hash.
        let mut d = Directory::new();
        let n = 4096u64;
        for i in 0..n {
            d.add_sharer(BlockAddr(i << 15), (i % 24) as u16);
        }
        assert_eq!(d.tracked_blocks(), n as usize);
        for i in 0..n {
            assert_eq!(
                d.sharers(BlockAddr(i << 15)).to_vec(),
                vec![(i % 24) as u16]
            );
        }
        for i in 0..n {
            d.remove_sharer(BlockAddr(i << 15), (i % 24) as u16);
        }
        assert_eq!(d.tracked_blocks(), 0);
    }

    #[test]
    fn with_capacity_holds_its_entries_without_growing() {
        for n in [0, 1, 14, 15, 100, 917, 5000] {
            let mut d = Directory::with_capacity(n);
            let cap = d.capacity();
            assert!(cap.is_power_of_two() && cap >= MIN_CAPACITY);
            for i in 0..n as u64 {
                d.add_sharer(BlockAddr(i << 15), 0);
            }
            assert_eq!(d.capacity(), cap, "{n} entries fit without a grow");
            d.add_sharer(BlockAddr(u64::MAX >> BLOCK_SHIFT), 1);
            assert!(d.capacity() <= 2 * cap);
        }
        // The paper machine's 24 cores x 20,480 L2 lines fit in 2^20 slots.
        assert_eq!(Directory::with_capacity(24 * 20_480).capacity(), 1 << 20);
    }

    #[test]
    fn owner_byte_round_trips_every_core_next_to_large_blocks() {
        let mut d = Directory::new();
        let top = u64::MAX >> BLOCK_SHIFT;
        for core in 0..MAX_CORES as u16 {
            let b = BlockAddr(top - u64::from(core));
            d.add_sharer(b, (core + 1) % MAX_CORES as u16);
            assert_eq!(d.dirty_owner(b), None);
            d.set_dirty_owner(b, core);
            assert_eq!(d.dirty_owner(b), Some(core));
            assert_eq!(d.sharers(b).to_vec(), vec![core]);
            d.clear_dirty(b);
            assert_eq!(d.dirty_owner(b), None);
            assert_eq!(
                d.sharers(b).to_vec(),
                vec![core],
                "clearing the owner keeps the key"
            );
        }
        let entries: Vec<_> = d.iter_entries().collect();
        assert_eq!(entries.len(), MAX_CORES);
        assert!(entries
            .iter()
            .all(|&(b, s, o)| b.0 > top - MAX_CORES as u64 && s.len() == 1 && o.is_none()));
    }

    #[test]
    fn largest_allowed_block_round_trips_with_every_sharer() {
        let b = BlockAddr(crate::addr::MAX_BLOCKS - 1);
        let mut d = Directory::new();
        for core in 0..MAX_CORES as u16 {
            d.add_sharer(b, core);
        }
        assert_eq!(d.sharers(b).len(), MAX_CORES);
        d.set_dirty_owner(b, MAX_CORES as u16 - 1);
        let entries: Vec<_> = d.iter_entries().collect();
        assert_eq!(
            entries,
            [(b, SharerSet::from_mask(1 << 23), Some(23))],
            "block, sharers and owner share one word without overlap"
        );
    }

    #[test]
    #[should_panic(expected = "too large for the directory key")]
    fn rejects_blocks_beyond_35_bits() {
        Directory::new().add_sharer(BlockAddr(1 << 35), 0);
    }

    #[test]
    #[should_panic(expected = "too large for the directory key")]
    fn rejects_blocks_beyond_56_bits() {
        Directory::new().add_sharer(BlockAddr(1 << 56), 0);
    }

    #[test]
    fn backward_shift_deletion_keeps_chains_reachable() {
        // Deleting from the middle of a probe chain must not orphan later
        // entries. Drive every block through one table and verify against
        // the reference after each mutation.
        // Starting from the minimum table, this also crosses several grows.
        let mut d = Directory::new();
        let mut r = ReferenceDirectory::new();
        // A mix of colliding strides and dense addresses, interleaved
        // add/remove/drop with a deterministic pattern.
        let blocks: Vec<u64> = (0..2048u64)
            .map(|i| if i % 3 == 0 { i << 15 } else { i })
            .collect();
        for (n, &b) in blocks.iter().enumerate() {
            let block = BlockAddr(b);
            let core = (n % MAX_CORES) as u16;
            match n % 5 {
                0..=2 => {
                    d.add_sharer(block, core);
                    r.add_sharer(block, core);
                }
                3 => {
                    let prev = BlockAddr(blocks[n / 2]);
                    d.remove_sharer(prev, core);
                    r.remove_sharer(prev, core);
                }
                _ => {
                    let prev = BlockAddr(blocks[n / 3]);
                    assert_eq!(d.drop_block(prev), r.drop_block(prev));
                }
            }
        }
        assert_eq!(d.tracked_blocks(), r.tracked_blocks());
        assert!(d.capacity() >= 8 * MIN_CAPACITY, "the table grew");
        for &b in &blocks {
            let block = BlockAddr(b);
            assert_eq!(d.sharers(block), r.sharers(block), "block {b}");
            assert_eq!(d.dirty_owner(block), r.dirty_owner(block));
        }
    }

    #[test]
    fn reference_directory_matches_on_basic_lifecycle() {
        let mut r = ReferenceDirectory::new();
        r.add_sharer(B, 1);
        r.set_dirty_owner(B, 1);
        assert_eq!(r.dirty_owner(B), Some(1));
        assert_eq!(r.sharers(B).to_vec(), vec![1]);
        assert!(r.sharers(B).without(1).is_empty());
        r.clear_dirty(B);
        assert_eq!(r.dirty_owner(B), None);
        assert_eq!(r.drop_block(B).to_vec(), vec![1]);
        assert_eq!(r.tracked_blocks(), 0);
    }
}
