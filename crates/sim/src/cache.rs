//! Set-associative cache with LRU replacement and way-partitioning.
//!
//! One [`SetAssocCache`] models a single cache level. The DDIO mechanism
//! (§II-A) restricts NIC write-allocations to a subset of LLC ways, and the
//! collocation experiments (§VI-E) partition LLC ways between tenants; both
//! are expressed with a [`WayMask`] passed at insertion time. Lookups always
//! search *all* ways — a block installed under one mask remains visible (and
//! replaceable) regardless of the mask of later operations, which is exactly
//! how Intel CAT/DDIO way masking behaves.

use std::fmt;

use crate::addr::BlockAddr;
use crate::table::ZeroTable;

/// A bitmask over cache ways; bit `i` set means way `i` may be allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayMask(pub u64);

impl WayMask {
    /// Mask allowing every way.
    pub const ALL: WayMask = WayMask(u64::MAX);

    /// Mask of the first `n` ways (`0..n`), e.g. the DDIO ways.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64`.
    pub fn first(n: u32) -> WayMask {
        assert!(n <= 64, "way masks support at most 64 ways");
        if n == 64 {
            WayMask(u64::MAX)
        } else {
            WayMask((1u64 << n) - 1)
        }
    }

    /// Mask of ways `lo..hi` (half-open).
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi > 64`.
    pub fn range(lo: u32, hi: u32) -> WayMask {
        assert!(lo <= hi && hi <= 64, "invalid way range {lo}..{hi}");
        WayMask(WayMask::first(hi).0 & !WayMask::first(lo).0)
    }

    /// Whether way `i` is allowed.
    pub fn allows(self, way: usize) -> bool {
        way < 64 && (self.0 >> way) & 1 == 1
    }

    /// Number of allowed ways (among the first `total` ways).
    pub fn count_in(self, total: usize) -> u32 {
        let cap = if total >= 64 {
            u64::MAX
        } else {
            (1u64 << total) - 1
        };
        (self.0 & cap).count_ones()
    }
}

impl fmt::Display for WayMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ways:{:#b}", self.0)
    }
}

/// Replacement policy of a cache level.
///
/// LRU is the paper's (and zSim's) default. SRRIP (static re-reference
/// interval prediction, Jaleel et al.) inserts lines with a *distant*
/// re-reference prediction so scan-like streams — e.g. dead network buffers
/// spilling through the LLC — evict each other instead of displacing
/// frequently-reused data. Exposed as an ablation knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Least-recently-used (the default).
    #[default]
    Lru,
    /// 2-bit static RRIP: insert at RRPV 2, promote to 0 on hit, victimize
    /// at RRPV 3 (aging on demand).
    Srrip,
}

/// Who installed a cache line. Used by the LLC to distinguish NIC-allocated
/// network buffers from CPU-installed lines in occupancy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineOrigin {
    /// Installed by a CPU demand access or a private-cache eviction.
    Cpu,
    /// Write-allocated by the NIC (DDIO).
    Nic,
}

/// Metadata of one resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Line {
    /// The block this line holds.
    pub block: BlockAddr,
    /// Whether the line differs from memory and needs a writeback on
    /// eviction.
    pub dirty: bool,
    /// Who installed the line.
    pub origin: LineOrigin,
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line's metadata.
    pub line: Line,
}

/// Geometry of a cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Access latency in CPU cycles.
    pub latency: u64,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into a whole power-of-two-free
    /// set count (sets need not be a power of two in this model, but must be
    /// at least 1).
    pub fn sets(&self) -> usize {
        let lines = self.size_bytes / crate::BLOCK_BYTES;
        let sets = lines as usize / self.ways;
        assert!(sets >= 1, "cache too small for its associativity");
        sets
    }
}

/// Packed per-way tag word. Layout (LSB first):
///
/// ```text
/// bit 0      present (0 = empty way; an all-zero word is an empty way)
/// bit 1      dirty
/// bit 2      origin (0 = Cpu, 1 = Nic)
/// bits 3..   block address
/// ```
///
/// Packing the residency scan's entire decision state into one `u64` per way
/// keeps a set probe inside one or two host cache lines; the 32-byte
/// `Option<Line>`-plus-LRU slots this replaces spread a 12-way probe across
/// six.
const TAG_PRESENT: u64 = 1;
const TAG_DIRTY: u64 = 1 << 1;
const TAG_NIC: u64 = 1 << 2;
const TAG_FLAG_BITS: u32 = 3;

fn encode_tag(block: BlockAddr, dirty: bool, origin: LineOrigin) -> u64 {
    debug_assert!(block.0 < 1 << (64 - TAG_FLAG_BITS), "block address too large to pack");
    (block.0 << TAG_FLAG_BITS)
        | (if origin == LineOrigin::Nic { TAG_NIC } else { 0 })
        | (if dirty { TAG_DIRTY } else { 0 })
        | TAG_PRESENT
}

fn decode_tag(tag: u64) -> Line {
    Line {
        block: BlockAddr(tag >> TAG_FLAG_BITS),
        dirty: tag & TAG_DIRTY != 0,
        origin: if tag & TAG_NIC != 0 {
            LineOrigin::Nic
        } else {
            LineOrigin::Cpu
        },
    }
}

fn tag_matches(tag: u64, block: BlockAddr) -> bool {
    tag & TAG_PRESENT != 0 && tag >> TAG_FLAG_BITS == block.0
}

/// A single set-associative cache level with LRU replacement.
///
/// Internally a structure-of-arrays: the packed `encode_tag` words carry
/// everything a residency scan needs, and the recency stamps
/// (`tick << 2 | rrpv`) live in a parallel array that is only touched on a
/// hit, an insertion, or victim selection. Because every mutation bumps the
/// monotone tick, stamps of occupied ways are unique and comparing the
/// combined word orders ways exactly like comparing the old per-slot `lru`
/// field did. Both arrays start all-zero: an empty tag word is an empty
/// way, and an empty way's stamp is never read (victim selection only runs
/// once every allowed way is occupied, and every insertion writes its way's
/// stamp), so building a cache writes nothing.
///
/// ```
/// use sweeper_sim::cache::{CacheGeometry, LineOrigin, SetAssocCache, WayMask};
/// use sweeper_sim::addr::BlockAddr;
///
/// let mut c = SetAssocCache::new(CacheGeometry { size_bytes: 8 * 64, ways: 2, latency: 4 });
/// assert!(c.lookup(BlockAddr(1)).is_none());
/// c.insert(BlockAddr(1), true, LineOrigin::Cpu, WayMask::ALL);
/// assert!(c.lookup(BlockAddr(1)).unwrap().dirty);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    geometry: CacheGeometry,
    sets: usize,
    tags: ZeroTable<u64>,   // sets * ways, row-major by set; 0 = empty way
    stamps: ZeroTable<u64>, // parallel to `tags`: tick << 2 | rrpv
    tick: u64,
    resident: u64,
    policy: ReplacementPolicy,
}

const STAMP_RRPV_BITS: u32 = 2;
const STAMP_RRPV_MASK: u64 = (1 << STAMP_RRPV_BITS) - 1;

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 64, or if the capacity is smaller
    /// than one set.
    pub fn new(geometry: CacheGeometry) -> Self {
        Self::with_policy(geometry, ReplacementPolicy::Lru)
    }

    /// Builds an empty cache with an explicit replacement policy.
    ///
    /// # Panics
    ///
    /// Same conditions as [`SetAssocCache::new`].
    pub fn with_policy(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        assert!(
            geometry.ways >= 1 && geometry.ways <= 64,
            "associativity must be in 1..=64"
        );
        let sets = geometry.sets();
        Self {
            geometry,
            sets,
            tags: ZeroTable::new(sets * geometry.ways),
            stamps: ZeroTable::new(sets * geometry.ways),
            tick: 0,
            resident: 0,
            policy,
        }
    }

    /// The replacement policy in effect.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Access latency in cycles.
    pub fn latency(&self) -> u64 {
        self.geometry.latency
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        // Fibonacci hashing with the *high* product bits: the low bits of a
        // multiplicative hash are merely a permutation of the low input
        // bits, so power-of-two-strided structures (per-core rings spaced
        // 2^15 blocks apart) would alias onto a handful of set phases and
        // thrash each other. The high bits mix all input bits; zSim
        // similarly hashes LLC set indices.
        let h = block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) % self.sets as u64) as usize
    }

    fn slot_range(&self, set: usize) -> std::ops::Range<usize> {
        let base = set * self.geometry.ways;
        base..base + self.geometry.ways
    }

    fn bump(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Hints the host CPU to pull the block's set metadata into cache.
    ///
    /// The simulator's tag and stamp tables (about 9 MiB for the paper's
    /// LLC, plus 320 KiB per private L2) are probed at hash-randomized
    /// indices, so nearly every set probe is a host last-level-cache miss.
    /// Callers that know the next few blocks they will touch (range
    /// accesses, packet delivery) can issue prefetches up front and let the
    /// host overlap what would otherwise be a serial chain of misses. Purely
    /// a performance hint: no simulated state changes.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        let set = self.set_of(block);
        let base = set * self.geometry.ways;
        #[cfg(target_arch = "x86_64")]
        unsafe {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            _mm_prefetch(self.tags.as_ptr().add(base).cast::<i8>(), _MM_HINT_T0);
            // A 20-way set spans three cache lines of tags; grab the tail too.
            let last = base + self.geometry.ways - 1;
            _mm_prefetch(self.tags.as_ptr().add(last).cast::<i8>(), _MM_HINT_T0);
            _mm_prefetch(self.stamps.as_ptr().add(base).cast::<i8>(), _MM_HINT_T0);
            _mm_prefetch(self.stamps.as_ptr().add(last).cast::<i8>(), _MM_HINT_T0);
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = base;
    }

    /// Looks a block up without updating recency.
    pub fn peek(&self, block: BlockAddr) -> Option<Line> {
        let set = self.set_of(block);
        self.tags[self.slot_range(set)]
            .iter()
            .find(|&&t| tag_matches(t, block))
            .map(|&t| decode_tag(t))
    }

    /// Looks a block up and updates LRU recency; returns the line metadata.
    pub fn lookup(&mut self, block: BlockAddr) -> Option<Line> {
        let set = self.set_of(block);
        let tick = self.bump();
        let range = self.slot_range(set);
        for idx in range {
            let tag = self.tags[idx];
            if tag_matches(tag, block) {
                self.stamps[idx] = tick << STAMP_RRPV_BITS; // rrpv -> 0
                return Some(decode_tag(tag));
            }
        }
        None
    }

    /// Marks a resident block dirty; returns `true` if the block was found.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        let range = self.slot_range(set);
        for idx in range {
            if tag_matches(self.tags[idx], block) {
                self.tags[idx] |= TAG_DIRTY;
                return true;
            }
        }
        false
    }

    /// Inserts (or updates in place) a block, allocating only within `mask`.
    ///
    /// Returns the line evicted to make room, if any. If the block is already
    /// resident — in *any* way — its metadata is updated in place (dirty is
    /// OR-ed, origin overwritten) and nothing is evicted.
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of this cache's ways.
    pub fn insert(
        &mut self,
        block: BlockAddr,
        dirty: bool,
        origin: LineOrigin,
        mask: WayMask,
    ) -> Option<Evicted> {
        assert!(
            mask.count_in(self.geometry.ways) > 0,
            "insertion mask allows no ways"
        );
        let set = self.set_of(block);
        let tick = self.bump();
        let range = self.slot_range(set);
        let insert_rrpv: u64 = match self.policy {
            ReplacementPolicy::Lru => 0,
            ReplacementPolicy::Srrip => 2,
        };

        // First pass over the packed tags only: a residency hit (checked in
        // *every* way, masked or not) and the first free allowed way. The
        // stamps are not touched unless the set turns out to be full.
        let mut free_idx = None;
        for (w, idx) in range.clone().enumerate() {
            let tag = self.tags[idx];
            if tag_matches(tag, block) {
                // Hit: update in place regardless of mask (dirty OR-ed,
                // origin overwritten).
                self.tags[idx] = encode_tag(block, dirty || tag & TAG_DIRTY != 0, origin);
                self.stamps[idx] = tick << STAMP_RRPV_BITS; // rrpv -> 0
                return None;
            }
            if tag & TAG_PRESENT == 0 && free_idx.is_none() && mask.allows(w) {
                free_idx = Some(idx);
            }
        }

        if let Some(idx) = free_idx {
            self.tags[idx] = encode_tag(block, dirty, origin);
            self.stamps[idx] = tick << STAMP_RRPV_BITS | insert_rrpv;
            self.resident += 1;
            return None;
        }

        // Set full within the mask: evict per the replacement policy. Every
        // allowed way is occupied here (the free scan covered them all), and
        // occupied ways carry unique ticks, so comparing the combined
        // `tick << 2 | rrpv` stamps picks the same victim (with the same
        // first-way tie-break) as comparing ticks alone.
        let victim_idx = match self.policy {
            ReplacementPolicy::Lru => {
                let mut lru_idx = None;
                let mut lru_min = u64::MAX;
                for (w, idx) in range.clone().enumerate() {
                    if mask.allows(w) && self.stamps[idx] < lru_min {
                        lru_min = self.stamps[idx];
                        lru_idx = Some(idx);
                    }
                }
                lru_idx.expect("mask allows at least one way")
            }
            ReplacementPolicy::Srrip => loop {
                let distant = range
                    .clone()
                    .enumerate()
                    .filter(|(w, _)| mask.allows(*w))
                    .find(|(_, idx)| self.stamps[*idx] & STAMP_RRPV_MASK >= 3)
                    .map(|(_, idx)| idx);
                if let Some(idx) = distant {
                    break idx;
                }
                // No distant line yet: age every allowed way and rescan.
                // Aging only runs when every allowed rrpv is <= 2, so the
                // 2-bit field cannot overflow.
                for (w, idx) in range.clone().enumerate() {
                    if mask.allows(w) {
                        self.stamps[idx] += 1;
                    }
                }
            },
        };
        let old = decode_tag(self.tags[victim_idx]);
        debug_assert!(self.tags[victim_idx] & TAG_PRESENT != 0, "victim way was occupied");
        self.tags[victim_idx] = encode_tag(block, dirty, origin);
        self.stamps[victim_idx] = tick << STAMP_RRPV_BITS | insert_rrpv;
        Some(Evicted { line: old })
    }

    /// Removes a block; returns its metadata if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Line> {
        let set = self.set_of(block);
        let range = self.slot_range(set);
        for idx in range {
            let tag = self.tags[idx];
            if tag_matches(tag, block) {
                self.tags[idx] = 0;
                self.resident -= 1;
                return Some(decode_tag(tag));
            }
        }
        None
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> u64 {
        self.resident
    }

    /// Number of resident lines with the given origin (O(capacity); intended
    /// for tests and periodic occupancy sampling, not hot paths).
    pub fn resident_by_origin(&self, origin: LineOrigin) -> u64 {
        self.iter_lines().filter(|l| l.origin == origin).count() as u64
    }

    /// Iterates over all resident lines (test/diagnostic helper).
    pub fn iter_lines(&self) -> impl Iterator<Item = Line> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t & TAG_PRESENT != 0)
            .map(|&t| decode_tag(t))
    }

    /// Iterates over all resident lines together with their `(set, way)`
    /// location — lets the correctness harness verify way-mask confinement
    /// (e.g. NIC-origin lines stay inside the DDIO ways).
    pub fn iter_located_lines(&self) -> impl Iterator<Item = (usize, usize, Line)> + '_ {
        let ways = self.geometry.ways;
        self.tags
            .iter()
            .enumerate()
            .filter(|(_, &t)| t & TAG_PRESENT != 0)
            .map(move |(slot, &t)| (slot / ways, slot % ways, decode_tag(t)))
    }

    /// Drops every resident line without any writeback bookkeeping.
    pub fn flush_all(&mut self) {
        self.tags.fill(0);
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 4 sets x 4 ways.
        SetAssocCache::new(CacheGeometry {
            size_bytes: 16 * crate::BLOCK_BYTES,
            ways: 4,
            latency: 4,
        })
    }

    /// Blocks guaranteed to map to the same set.
    fn same_set_blocks(c: &SetAssocCache, n: usize) -> Vec<BlockAddr> {
        let target = c.set_of(BlockAddr(0));
        (0u64..)
            .map(BlockAddr)
            .filter(|b| c.set_of(*b) == target)
            .take(n)
            .collect()
    }

    #[test]
    fn way_mask_first_and_range() {
        assert_eq!(WayMask::first(0).0, 0);
        assert_eq!(WayMask::first(2).0, 0b11);
        assert_eq!(WayMask::first(64), WayMask::ALL);
        assert_eq!(WayMask::range(2, 4).0, 0b1100);
        assert!(WayMask::range(2, 4).allows(3));
        assert!(!WayMask::range(2, 4).allows(1));
        assert_eq!(WayMask::first(6).count_in(12), 6);
        assert_eq!(WayMask::ALL.count_in(12), 12);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn way_mask_first_overflow() {
        WayMask::first(65);
    }

    #[test]
    fn geometry_sets() {
        let g = CacheGeometry {
            size_bytes: 36 * 1024 * 1024,
            ways: 12,
            latency: 35,
        };
        // 36MB / 64B / 12 ways = 49152 sets (Table I LLC).
        assert_eq!(g.sets(), 49_152);
    }

    #[test]
    fn insert_lookup_invalidate() {
        let mut c = small();
        let b = BlockAddr(42);
        assert!(c.lookup(b).is_none());
        assert!(c.insert(b, false, LineOrigin::Cpu, WayMask::ALL).is_none());
        let l = c.lookup(b).unwrap();
        assert!(!l.dirty);
        assert_eq!(l.origin, LineOrigin::Cpu);
        assert!(c.mark_dirty(b));
        assert!(c.lookup(b).unwrap().dirty);
        let inv = c.invalidate(b).unwrap();
        assert!(inv.dirty);
        assert!(c.lookup(b).is_none());
        assert!(!c.mark_dirty(b));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn insert_updates_in_place_on_hit() {
        let mut c = small();
        let b = BlockAddr(7);
        c.insert(b, false, LineOrigin::Cpu, WayMask::ALL);
        // Re-insert dirty via NIC: dirty OR-ed, origin replaced, no eviction.
        assert!(c.insert(b, true, LineOrigin::Nic, WayMask::first(1)).is_none());
        let l = c.peek(b).unwrap();
        assert!(l.dirty);
        assert_eq!(l.origin, LineOrigin::Nic);
        assert_eq!(c.resident_lines(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let blocks = same_set_blocks(&c, 5);
        for &b in &blocks[..4] {
            c.insert(b, false, LineOrigin::Cpu, WayMask::ALL);
        }
        // Touch blocks[0] so blocks[1] becomes LRU.
        c.lookup(blocks[0]);
        let ev = c
            .insert(blocks[4], false, LineOrigin::Cpu, WayMask::ALL)
            .expect("set was full");
        assert_eq!(ev.line.block, blocks[1]);
    }

    #[test]
    fn way_mask_restricts_victim_choice() {
        let mut c = small();
        let blocks = same_set_blocks(&c, 6);
        // Fill ways 0..4 in order: blocks[0..4] land in ways 0,1,2,3.
        for &b in &blocks[..4] {
            c.insert(b, true, LineOrigin::Nic, WayMask::ALL);
        }
        // Insert with mask = way 0 only: must evict whatever is in way 0,
        // even though blocks[0] is the overall LRU *and* in way 0 here.
        let ev = c
            .insert(blocks[4], true, LineOrigin::Nic, WayMask::first(1))
            .expect("way 0 occupied");
        assert_eq!(ev.line.block, blocks[0]);
        // blocks[1..4] (ways 1..3) must be untouched.
        for &b in &blocks[1..4] {
            assert!(c.peek(b).is_some(), "{b} should still be resident");
        }
        // A second masked insert evicts the block just placed in way 0.
        let ev2 = c
            .insert(blocks[5], true, LineOrigin::Nic, WayMask::first(1))
            .expect("way 0 occupied");
        assert_eq!(ev2.line.block, blocks[4]);
    }

    #[test]
    fn masked_insert_still_found_by_unmasked_lookup() {
        let mut c = small();
        let b = BlockAddr(99);
        c.insert(b, true, LineOrigin::Nic, WayMask::range(2, 3));
        assert!(c.lookup(b).is_some());
    }

    #[test]
    fn resident_by_origin_counts() {
        let mut c = small();
        c.insert(BlockAddr(1), false, LineOrigin::Cpu, WayMask::ALL);
        c.insert(BlockAddr(2), true, LineOrigin::Nic, WayMask::ALL);
        c.insert(BlockAddr(3), true, LineOrigin::Nic, WayMask::ALL);
        assert_eq!(c.resident_by_origin(LineOrigin::Cpu), 1);
        assert_eq!(c.resident_by_origin(LineOrigin::Nic), 2);
        assert_eq!(c.iter_lines().count(), 3);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.iter_lines().count(), 0);
    }

    #[test]
    #[should_panic(expected = "allows no ways")]
    fn empty_mask_panics() {
        let mut c = small();
        c.insert(BlockAddr(0), false, LineOrigin::Cpu, WayMask(0));
    }

    #[test]
    fn srrip_protects_reused_lines_from_scans() {
        // A hot line that is re-referenced survives a scan of never-reused
        // lines under SRRIP, but is evicted under LRU once the scan exceeds
        // associativity.
        let geometry = CacheGeometry {
            size_bytes: 4 * crate::BLOCK_BYTES,
            ways: 4,
            latency: 1,
        };
        let run = |policy: ReplacementPolicy| {
            let mut c = SetAssocCache::with_policy(geometry, policy);
            let hot = BlockAddr(0);
            c.insert(hot, false, LineOrigin::Cpu, WayMask::ALL);
            c.lookup(hot); // mark as reused (RRPV 0)
            for i in 1..=12u64 {
                c.insert(BlockAddr(i), false, LineOrigin::Cpu, WayMask::ALL);
                c.lookup(hot); // keep re-referencing between scan lines
            }
            c.peek(hot).is_some()
        };
        assert!(run(ReplacementPolicy::Srrip), "SRRIP keeps the hot line");
        assert!(run(ReplacementPolicy::Lru), "LRU also keeps it when touched");
        // Without re-references during the scan, SRRIP still protects the
        // recently-promoted line while LRU evicts it.
        let run_no_touch = |policy: ReplacementPolicy| {
            let mut c = SetAssocCache::with_policy(geometry, policy);
            let hot = BlockAddr(0);
            c.insert(hot, false, LineOrigin::Cpu, WayMask::ALL);
            c.lookup(hot);
            for i in 1..=4u64 {
                c.insert(BlockAddr(i), false, LineOrigin::Cpu, WayMask::ALL);
            }
            c.peek(hot).is_some()
        };
        assert!(run_no_touch(ReplacementPolicy::Srrip));
        assert!(!run_no_touch(ReplacementPolicy::Lru));
    }

    #[test]
    fn srrip_capacity_and_progress() {
        let mut c = SetAssocCache::with_policy(
            CacheGeometry {
                size_bytes: 16 * crate::BLOCK_BYTES,
                ways: 4,
                latency: 1,
            },
            ReplacementPolicy::Srrip,
        );
        for i in 0..10_000u64 {
            c.insert(BlockAddr(i), i % 3 == 0, LineOrigin::Cpu, WayMask::ALL);
            assert!(c.resident_lines() <= 16);
        }
        assert_eq!(c.policy(), ReplacementPolicy::Srrip);
    }

    #[test]
    fn zeroed_stamps_pick_the_same_victims_as_stamps_of_three() {
        // Caches used to start with every stamp at 3 (rrpv "distant"). Empty
        // ways' stamps are never read, so starting from zero must evict
        // exactly the same lines, including once a full set has been partly
        // invalidated and refilled (the refilled ways get fresh stamps
        // while their neighbours keep old ones).
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Srrip] {
            let geometry = CacheGeometry {
                size_bytes: 8 * 4 * crate::BLOCK_BYTES,
                ways: 4,
                latency: 1,
            };
            let mut zeroed = SetAssocCache::with_policy(geometry, policy);
            let mut threes = SetAssocCache::with_policy(geometry, policy);
            threes.stamps.fill(3);

            let set = same_set_blocks(&zeroed, 12);
            let step = |c: &mut SetAssocCache, op: u64, b: BlockAddr| match op % 5 {
                0 | 1 => c
                    .insert(b, op.is_multiple_of(2), LineOrigin::Cpu, WayMask::ALL)
                    .map(|e| e.line),
                2 => c
                    .insert(b, true, LineOrigin::Nic, WayMask::first(2))
                    .map(|e| e.line),
                3 => c.lookup(b),
                _ => c.invalidate(b),
            };
            // Fill one set, invalidate half of it, refill.
            let scripted = (0..4)
                .map(|i| (0, set[i]))
                .chain([(4, set[1]), (4, set[3])])
                .chain((4..8).map(|i| (0, set[i])));
            let mut x = 0x2545_F491_4F6C_DD1Du64;
            let random = (0..4000).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let b = if x.is_multiple_of(3) {
                    BlockAddr(x % 64)
                } else {
                    set[(x >> 8) as usize % 12]
                };
                (x >> 20, b)
            });
            for (op, b) in scripted.chain(random) {
                assert_eq!(
                    step(&mut zeroed, op, b),
                    step(&mut threes, op, b),
                    "{policy:?}"
                );
            }
            assert_eq!(&zeroed.tags[..], &threes.tags[..]);
        }
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = small();
        for i in 0..10_000u64 {
            c.insert(BlockAddr(i), i % 2 == 0, LineOrigin::Cpu, WayMask::ALL);
            assert!(c.resident_lines() <= 16);
        }
        assert_eq!(c.resident_lines(), 16);
    }
}
