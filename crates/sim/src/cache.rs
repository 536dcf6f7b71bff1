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

use crate::addr::{BlockAddr, MAX_BLOCKS};
use crate::table::{HostLine, ZeroTable, HOST_LINE};

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
/// bit 0       present (0 = empty way; an all-zero word is an empty way)
/// bit 1       dirty
/// bit 2       origin (0 = Cpu, 1 = Nic)
/// bits 3..32  block address
/// ```
///
/// A row stores each word in 4 bytes, which hold every block below
/// [`MAX_BLOCKS`]; the helpers work on the word widened to `u64`, where it
/// compares with a [`BlockAddr`] directly.
const TAG_PRESENT: u64 = 1;
const TAG_DIRTY: u64 = 1 << 1;
const TAG_NIC: u64 = 1 << 2;
const TAG_FLAG_BITS: u32 = 3;

const _: () = assert!(
    MAX_BLOCKS << TAG_FLAG_BITS <= 1 << 32,
    "tag words are 32 bits"
);

fn encode_tag(block: BlockAddr, dirty: bool, origin: LineOrigin) -> u64 {
    assert!(
        block.0 < MAX_BLOCKS,
        "block address beyond the simulated address limit"
    );
    (block.0 << TAG_FLAG_BITS)
        | (if origin == LineOrigin::Nic {
            TAG_NIC
        } else {
            0
        })
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

/// The word a scan compares with `tag | TAG_DIRTY | TAG_NIC`: equal exactly
/// when the way is present and holds `block`. Wraps for blocks at or past
/// [`MAX_BLOCKS`], which [`SetRows::scan`] therefore never reports as hits.
#[inline]
fn scan_key(block: BlockAddr) -> u32 {
    (block.0 << TAG_FLAG_BITS | TAG_DIRTY | TAG_NIC | TAG_PRESENT) as u32
}

/// Tag words a scan compares per host line.
const LINE_WAYS: usize = HOST_LINE / 4;

/// A tag word as a row stores it; [`encode_tag`] keeps every word below
/// 2^32.
#[inline]
fn stored(tag: u64) -> [u8; 4] {
    debug_assert!(tag <= u64::from(u32::MAX), "tag word overflows 32 bits");
    (tag as u32).to_ne_bytes()
}

/// The tag word in a row's 4-byte `slot`, widened.
#[inline]
fn loaded(slot: &[u8]) -> u64 {
    u64::from(u32::from_ne_bytes(
        slot.try_into().expect("a tag slot is 4 bytes"),
    ))
}

/// Replacement bytes one SSE2 vector holds: [`promote`] and [`lru_victim`]
/// work on a row's rank bytes 16 ways at a time.
const RANK_LANES: usize = 16;

/// A cache's set metadata, one row per set: the set's `ways` tag words
/// (4 bytes each, see [`encode_tag`]), then one replacement byte per way,
/// the rank area padded to a multiple of [`RANK_LANES`] bytes, then padded
/// to whole host lines. A 12-way row (48 + 16 B) is one 64-byte line and a
/// 20-way row (80 + 32 B) two, and every row starts on a line boundary, so
/// a set probe touches only its own row's lines and a rank vector never
/// reaches past its own row. An all-zero row is an empty set.
#[derive(Debug, Clone)]
struct SetRows {
    lines: ZeroTable<HostLine>,
    ways: usize,
    /// Host lines per row.
    row_lines: usize,
}

impl SetRows {
    fn new(sets: usize, ways: usize) -> Self {
        let row_lines = (4 * ways + ways.next_multiple_of(RANK_LANES)).div_ceil(HOST_LINE);
        Self {
            lines: ZeroTable::new(sets * row_lines),
            ways,
            row_lines,
        }
    }

    /// Bytes of a row that hold tag words and the padded rank area.
    #[inline]
    fn meta_bytes(&self) -> usize {
        4 * self.ways + self.ways.next_multiple_of(RANK_LANES)
    }

    fn sets(&self) -> usize {
        self.lines.len() / self.row_lines
    }

    /// The host lines of `set`'s row.
    #[inline]
    fn lines(&self, set: usize) -> &[HostLine] {
        &self.lines[set * self.row_lines..(set + 1) * self.row_lines]
    }

    /// `set`'s tag slots (4 bytes per way) and its padded rank area: one
    /// replacement byte per way, then zero bytes up to a multiple of
    /// [`RANK_LANES`].
    #[inline]
    fn row(&self, set: usize) -> (&[u8], &[u8]) {
        self.lines(set).as_flattened()[..self.meta_bytes()].split_at(4 * self.ways)
    }

    /// [`row`](Self::row), for update.
    #[inline]
    fn row_mut(&mut self, set: usize) -> (&mut [u8], &mut [u8]) {
        let (tag_bytes, meta_bytes) = (4 * self.ways, self.meta_bytes());
        let start = set * self.row_lines;
        self.lines[start..start + self.row_lines].as_flattened_mut()[..meta_bytes]
            .split_at_mut(tag_bytes)
    }

    /// The ways of `set` that hold `block` (`hits`) and that are empty
    /// (`empty`), as bitmasks: bit `w` stands for way `w`.
    ///
    /// One branch-free pass over the row's tag words, 16 ways per host line;
    /// lanes at or past `ways` (rank bytes and padding) are masked off.
    #[inline]
    fn scan(&self, set: usize, block: BlockAddr) -> (u64, u64) {
        let lines = &self.lines(set)[..self.ways.div_ceil(LINE_WAYS)];
        let (hits, empty) = scan_lines(lines, scan_key(block));
        let ways = u64::MAX >> (64 - self.ways);
        let hit_ways = if block.0 < MAX_BLOCKS { ways } else { 0 };
        (hits & hit_ways, empty & ways)
    }

    /// The tag word in `way` of `set`.
    #[inline]
    fn tag(&self, set: usize, way: usize) -> u64 {
        loaded(&self.row(set).0[4 * way..4 * way + 4])
    }

    /// Every resident tag word with its `(set, way)`, in set order.
    fn iter_present(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.sets()).flat_map(move |set| {
            self.row(set)
                .0
                .chunks_exact(4)
                .enumerate()
                .map(move |(way, slot)| (set, way, loaded(slot)))
                .filter(|&(_, _, t)| t & TAG_PRESENT != 0)
        })
    }
}

/// Lets a test take a whole table with `&cache.tags[..]`, as it did the flat
/// tag array the rows replaced.
#[cfg(test)]
impl std::ops::Index<std::ops::RangeFull> for SetRows {
    type Output = SetRows;

    fn index(&self, _: std::ops::RangeFull) -> &SetRows {
        self
    }
}

/// A table equals a flat `sets * ways` array of tag words (the layout before
/// rows) when its tag words, set by set, do.
#[cfg(test)]
impl PartialEq<[u64]> for SetRows {
    fn eq(&self, flat: &[u64]) -> bool {
        flat.len() == self.sets() * self.ways
            && (0..self.sets())
                .flat_map(|set| self.row(set).0.chunks_exact(4).map(loaded))
                .eq(flat.iter().copied())
    }
}

/// A single set-associative cache level with LRU replacement.
///
/// Each set is one row of whole host cache lines: the packed tag words carry
/// everything a residency scan needs, and the replacement byte per way that
/// follows them is only touched on a hit, an insertion, or victim
/// selection. Under LRU a set's bytes hold its recency order as a
/// permutation of the ways, each way storing `rank ^ way` (rank 0 = most
/// recent): a hit or fill moves the way to rank 0, and the victim is the
/// allowed way with the highest rank. On x86-64 both are one branch-free
/// SSE2 pass over the rank bytes, 16 ways per vector. Under SRRIP the byte
/// is the way's re-reference prediction value. Rows start all-zero: an
/// empty tag word is an empty way, zero rank bytes are the identity
/// permutation, and an empty way's byte is never read (victim selection
/// only runs once every allowed way is occupied, and every insertion writes
/// its way's byte), so building a cache writes nothing.
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
    /// `fastmod_magic(sets)`: lets `set_of` reduce without a divide.
    sets_magic: u64,
    /// One row per set: tag words, then LRU `rank ^ way` or SRRIP rrpv bytes.
    tags: SetRows,
    resident: u64,
    policy: ReplacementPolicy,
}

/// SRRIP's prediction for a newly filled line ("long re-reference").
const SRRIP_INSERT: u8 = 2;
/// SRRIP's "distant" prediction: only such lines are victimized.
const SRRIP_DISTANT: u8 = 3;

impl SetAssocCache {
    /// Builds an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or exceeds 64, or if the capacity is smaller
    /// than one set or larger than `u32::MAX` sets.
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
        assert!(
            sets <= u32::MAX as usize,
            "set index reduction needs at most 2^32 - 1 sets"
        );
        Self {
            geometry,
            sets,
            sets_magic: fastmod_magic(sets as u64),
            tags: SetRows::new(sets, geometry.ways),
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
        // similarly hashes LLC set indices. The 32-bit hash is then reduced
        // modulo the set count (49,152 for the paper's LLC, not a power of
        // two) by `fastmod`, which equals `%` exactly and needs no divide.
        let h = block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        fastmod(h >> 32, self.sets_magic, self.sets as u64) as usize
    }

    /// Hints the host CPU to pull the block's set metadata into cache.
    ///
    /// The simulator's set rows (3 MiB for the paper's LLC, plus 128 KiB per
    /// private L2) are probed at hash-randomized indices, so nearly every
    /// set probe is a host last-level-cache miss. Callers that know the next
    /// few blocks they will touch (range accesses, packet delivery) can
    /// issue prefetches up front and let the host overlap what would
    /// otherwise be a serial chain of misses. Every host line of the set's
    /// row is requested: one for a 12-way set, two for a 20-way one. Purely
    /// a performance hint: no simulated state changes.
    #[inline]
    pub fn prefetch(&self, block: BlockAddr) {
        for line in self.tags.lines(self.set_of(block)) {
            prefetch_line(line);
        }
    }

    /// Looks a block up without updating recency.
    pub fn peek(&self, block: BlockAddr) -> Option<Line> {
        let set = self.set_of(block);
        let (hits, _) = self.tags.scan(set, block);
        (hits != 0).then(|| decode_tag(self.tags.tag(set, first_way(hits))))
    }

    /// Looks a block up and updates LRU recency; returns the line metadata.
    pub fn lookup(&mut self, block: BlockAddr) -> Option<Line> {
        self.access(block, false)
    }

    /// [`lookup`](Self::lookup) that also marks a hit dirty when `dirty` is
    /// set, in the same probe of the set. Returns the line as it was
    /// *before* the access, so callers can tell a write to an
    /// already-dirty line from the write that dirtied it.
    pub fn access(&mut self, block: BlockAddr, dirty: bool) -> Option<Line> {
        let set = self.set_of(block);
        let (hits, _) = self.tags.scan(set, block);
        if hits == 0 {
            return None;
        }
        let way = first_way(hits);
        let (tags, ranks) = self.tags.row_mut(set);
        let slot = &mut tags[4 * way..4 * way + 4];
        let tag = loaded(slot);
        if dirty {
            slot.copy_from_slice(&stored(tag | TAG_DIRTY));
        }
        touch(self.policy, ranks, self.geometry.ways, way, false);
        Some(decode_tag(tag))
    }

    /// Marks a resident block dirty; returns `true` if the block was found.
    pub fn mark_dirty(&mut self, block: BlockAddr) -> bool {
        let set = self.set_of(block);
        let (hits, _) = self.tags.scan(set, block);
        if hits == 0 {
            return false;
        }
        let way = first_way(hits);
        let slot = &mut self.tags.row_mut(set).0[4 * way..4 * way + 4];
        slot.copy_from_slice(&stored(loaded(slot) | TAG_DIRTY));
        true
    }

    /// Inserts (or updates in place) a block, allocating only within `mask`.
    ///
    /// Returns the line evicted to make room, if any. If the block is already
    /// resident — in *any* way — its metadata is updated in place (dirty is
    /// OR-ed, origin overwritten) and nothing is evicted.
    ///
    /// # Panics
    ///
    /// Panics if `mask` allows none of this cache's ways, or if `block` is
    /// not below [`MAX_BLOCKS`].
    pub fn insert(
        &mut self,
        block: BlockAddr,
        dirty: bool,
        origin: LineOrigin,
        mask: WayMask,
    ) -> Option<Evicted> {
        let ways = self.geometry.ways;
        assert!(mask.count_in(ways) > 0, "insertion mask allows no ways");
        let set = self.set_of(block);
        let policy = self.policy;
        // One scan of the packed tags: a residency hit (checked in *every*
        // way, masked or not) and the free ways. The ranks are not read
        // unless the set turns out to be full within the mask.
        let (hits, empty) = self.tags.scan(set, block);
        let (tags, ranks) = self.tags.row_mut(set);

        if hits != 0 {
            // Hit: update in place regardless of mask (dirty OR-ed, origin
            // overwritten).
            let way = first_way(hits);
            let slot = &mut tags[4 * way..4 * way + 4];
            let was_dirty = loaded(slot) & TAG_DIRTY != 0;
            slot.copy_from_slice(&stored(encode_tag(block, dirty || was_dirty, origin)));
            touch(policy, ranks, ways, way, false);
            return None;
        }

        let free = empty & mask.0;
        if free != 0 {
            let way = first_way(free);
            tags[4 * way..4 * way + 4].copy_from_slice(&stored(encode_tag(block, dirty, origin)));
            touch(policy, ranks, ways, way, true);
            self.resident += 1;
            return None;
        }

        // Set full within the mask: evict per the replacement policy. Every
        // allowed way is occupied here (no allowed way was empty), and each
        // was touched when its line was installed.
        let allowed = (0..ways).filter(|&w| mask.allows(w));
        let victim = match policy {
            ReplacementPolicy::Lru => lru_victim(ranks, ways, mask),
            ReplacementPolicy::Srrip => loop {
                if let Some(w) = allowed.clone().find(|&w| ranks[w] >= SRRIP_DISTANT) {
                    break w;
                }
                // No distant line yet: age every allowed way and rescan.
                // Aging only runs when every allowed rrpv is below distant,
                // so no byte passes it.
                for w in allowed.clone() {
                    ranks[w] += 1;
                }
            },
        };
        let slot = &mut tags[4 * victim..4 * victim + 4];
        let old = loaded(slot);
        debug_assert!(old & TAG_PRESENT != 0, "victim way was occupied");
        slot.copy_from_slice(&stored(encode_tag(block, dirty, origin)));
        touch(policy, ranks, ways, victim, true);
        Some(Evicted {
            line: decode_tag(old),
        })
    }

    /// Removes a block; returns its metadata if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<Line> {
        let set = self.set_of(block);
        let (hits, _) = self.tags.scan(set, block);
        if hits == 0 {
            return None;
        }
        let way = first_way(hits);
        let slot = &mut self.tags.row_mut(set).0[4 * way..4 * way + 4];
        let tag = loaded(slot);
        slot.fill(0);
        self.resident -= 1;
        Some(decode_tag(tag))
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
        self.iter_located_lines().map(|(_, _, line)| line)
    }

    /// Iterates over all resident lines together with their `(set, way)`
    /// location — lets the correctness harness verify way-mask confinement
    /// (e.g. NIC-origin lines stay inside the DDIO ways).
    pub fn iter_located_lines(&self) -> impl Iterator<Item = (usize, usize, Line)> + '_ {
        self.tags
            .iter_present()
            .map(|(set, way, tag)| (set, way, decode_tag(tag)))
    }
}

/// Records a reference to `way` of a `ways`-way set with padded rank area
/// `ranks`: a hit (`fill == false`) or the way's new line being installed.
#[inline]
fn touch(policy: ReplacementPolicy, ranks: &mut [u8], ways: usize, way: usize, fill: bool) {
    match policy {
        ReplacementPolicy::Lru => promote(ranks, ways, way),
        ReplacementPolicy::Srrip => ranks[way] = if fill { SRRIP_INSERT } else { 0 },
    }
}

/// The lowest way in a nonzero way bitmask.
#[inline]
fn first_way(ways: u64) -> usize {
    ways.trailing_zeros() as usize
}

/// Which of the tag words in `lines` (at most four lines, 64 words) equal
/// `key` (`hits`) and which are empty (`empty`), as bitmasks over the words
/// in order; words past a row's ways are compared too and left for the
/// caller to mask off.
///
/// The portable body of [`SetRows::scan`]: the implementation off x86-64
/// and the oracle its SSE2 body is tested against.
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
fn scan_lines_portable(lines: &[HostLine], key: u32) -> (u64, u64) {
    let mut hits = 0;
    let mut empty = 0;
    for (lane, slot) in lines.as_flattened().chunks_exact(4).enumerate() {
        let tag = loaded(slot);
        hits |= u64::from(tag | TAG_DIRTY | TAG_NIC == u64::from(key)) << lane;
        empty |= u64::from(tag & TAG_PRESENT == 0) << lane;
    }
    (hits, empty)
}

/// [`scan_lines_portable`] in SSE2, four lanes per compare.
#[cfg(target_arch = "x86_64")]
#[inline]
fn scan_lines(lines: &[HostLine], key: u32) -> (u64, u64) {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_castsi128_ps, _mm_cmpeq_epi32, _mm_loadu_si128,
        _mm_movemask_ps, _mm_or_si128, _mm_set1_epi32, _mm_setzero_si128,
    };
    let mut hits = 0;
    let mut empty = 0;
    // SAFETY: SSE2 is part of the x86-64 baseline, and every load reads 16
    // bytes inside one of the borrowed host lines (`_mm_loadu_si128` needs
    // no alignment; rows start on line boundaries, so the loads never split
    // a line).
    unsafe {
        let key = _mm_set1_epi32(key as i32);
        let flags = _mm_set1_epi32((TAG_DIRTY | TAG_NIC) as i32);
        let present = _mm_set1_epi32(TAG_PRESENT as i32);
        let zero = _mm_setzero_si128();
        for (i, line) in lines.iter().enumerate() {
            let words = line.as_ptr().cast::<__m128i>();
            for quad in 0..4 {
                let v = _mm_loadu_si128(words.add(quad));
                let hit = _mm_cmpeq_epi32(_mm_or_si128(v, flags), key);
                let free = _mm_cmpeq_epi32(_mm_and_si128(v, present), zero);
                let lane = 16 * i + 4 * quad;
                hits |= (_mm_movemask_ps(_mm_castsi128_ps(hit)) as u64) << lane;
                empty |= (_mm_movemask_ps(_mm_castsi128_ps(free)) as u64) << lane;
            }
        }
    }
    (hits, empty)
}

#[cfg(not(target_arch = "x86_64"))]
use scan_lines_portable as scan_lines;

/// The multiplier `fastmod` needs to reduce modulo `d`: `ceil(2^64 / d)`,
/// which wraps to 0 for `d == 1`.
fn fastmod_magic(d: u64) -> u64 {
    (u64::MAX / d).wrapping_add(1)
}

/// `a % d` for `a < 2^32` and `1 <= d < 2^32`, with `m = fastmod_magic(d)`.
///
/// Lemire, Kaser and Kurz, "Faster Remainder by Direct Computation" (2019):
/// the low 64 bits of `m * a` are the fractional part of `a / d` in 0.64
/// fixed point, and multiplying that fraction back by `d` leaves the
/// remainder in the high word. With both operands below 2^32 the 64-bit
/// fraction carries enough precision for the result to be exact for every
/// input, not just most (their Theorem 1 with N = 32, F = 64). For `d == 1`
/// the multiplier is 0 and so is every remainder.
#[inline]
fn fastmod(a: u64, m: u64, d: u64) -> u64 {
    debug_assert!(a <= u32::MAX as u64 && d <= u32::MAX as u64);
    ((m.wrapping_mul(a) as u128 * d as u128) >> 64) as u64
}

/// Moves `way` to rank 0 of the first `ways` bytes of an LRU rank row
/// (`rank ^ way` per way), one rank down for every way that was more recent.
///
/// The portable body of [`promote`]: the implementation off x86-64 and the
/// oracle its SSE2 body is tested against.
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
fn promote_portable(ranks: &mut [u8], ways: usize, way: usize) {
    let old = ranks[way] ^ way as u8;
    for (w, byte) in ranks[..ways].iter_mut().enumerate() {
        let rank = *byte ^ w as u8;
        *byte = (rank + u8::from(rank < old)) ^ w as u8;
    }
    ranks[way] = way as u8;
}

/// The allowed way with the highest rank in the first `ways` bytes of an LRU
/// rank row: the least recently used line `mask` may replace. The ranks form
/// a permutation, so the maximum is unique.
///
/// The portable body of [`lru_victim`], and its test oracle.
#[cfg_attr(all(target_arch = "x86_64", not(test)), allow(dead_code))]
fn lru_victim_portable(ranks: &[u8], ways: usize, mask: WayMask) -> usize {
    (0..ways)
        .filter(|&w| mask.allows(w))
        .max_by_key(|&w| ranks[w] ^ w as u8)
        .expect("mask allows at least one way")
}

/// The way number of each byte lane in the `chunk`th rank vector of a row.
#[cfg(target_arch = "x86_64")]
#[inline]
fn lane_ways(chunk: usize) -> std::arch::x86_64::__m128i {
    use std::arch::x86_64::{_mm_add_epi8, _mm_set1_epi8, _mm_setr_epi8};
    // SAFETY: SSE2 is part of the x86-64 baseline.
    unsafe {
        _mm_add_epi8(
            _mm_setr_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            _mm_set1_epi8((RANK_LANES * chunk) as i8),
        )
    }
}

/// [`promote_portable`] in SSE2, [`RANK_LANES`] ways per vector: decode
/// `byte ^ way`, add 1 where the rank is below the touched way's, give the
/// touched way rank 0 and re-encode. Ranks are below 64, so a signed byte
/// compare is exact; lanes at or past `ways` are stored back unchanged.
/// `ranks` must hold the row's whole padded rank area.
#[cfg(target_arch = "x86_64")]
#[inline]
fn promote(ranks: &mut [u8], ways: usize, way: usize) {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_andnot_si128, _mm_cmpeq_epi8, _mm_cmplt_epi8, _mm_loadu_si128,
        _mm_set1_epi8, _mm_storeu_si128, _mm_sub_epi8, _mm_xor_si128,
    };
    let old = ranks[way] ^ way as u8;
    let (vectors, _) = ranks[..ways.next_multiple_of(RANK_LANES)].as_chunks_mut::<RANK_LANES>();
    // SAFETY: SSE2 is part of the x86-64 baseline, and every load and store
    // covers exactly one borrowed 16-byte chunk (`_mm_loadu_si128` and
    // `_mm_storeu_si128` need no alignment).
    unsafe {
        let old = _mm_set1_epi8(old as i8);
        let ways = _mm_set1_epi8(ways as i8);
        let way = _mm_set1_epi8(way as i8);
        for (chunk, bytes) in vectors.iter_mut().enumerate() {
            let lanes = lane_ways(chunk);
            let rank = _mm_xor_si128(_mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()), lanes);
            let newer = _mm_and_si128(_mm_cmplt_epi8(rank, old), _mm_cmplt_epi8(lanes, ways));
            // `newer` is -1 where the way moves down a rank.
            let rank = _mm_andnot_si128(_mm_cmpeq_epi8(lanes, way), _mm_sub_epi8(rank, newer));
            _mm_storeu_si128(
                bytes.as_mut_ptr().cast::<__m128i>(),
                _mm_xor_si128(rank, lanes),
            );
        }
    }
}

/// [`lru_victim_portable`] in SSE2, [`RANK_LANES`] ways per vector: each
/// allowed way's key is its rank plus one and every other lane's is 0, and
/// the victim is the lane whose key equals the keys' maximum. `ranks` must
/// hold the row's whole padded rank area.
#[cfg(target_arch = "x86_64")]
#[inline]
fn lru_victim(ranks: &[u8], ways: usize, mask: WayMask) -> usize {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi8, _mm_and_si128, _mm_cmpeq_epi8, _mm_loadu_si128, _mm_max_epu8,
        _mm_movemask_epi8, _mm_or_si128, _mm_set1_epi64x, _mm_set1_epi8, _mm_set_epi64x,
        _mm_setzero_si128, _mm_shuffle_epi32, _mm_slli_epi16, _mm_slli_epi32, _mm_srli_epi16,
        _mm_srli_epi32, _mm_xor_si128,
    };
    let allowed = mask.0 & u64::MAX >> (64 - ways);
    debug_assert!(allowed != 0, "mask allows at least one way");
    let (vectors, _) = ranks[..ways.next_multiple_of(RANK_LANES)].as_chunks::<RANK_LANES>();
    // SAFETY: SSE2 is part of the x86-64 baseline, and every load covers
    // exactly one borrowed 16-byte chunk (`_mm_loadu_si128` needs no
    // alignment).
    unsafe {
        // Byte lane `i % 8` of each half tests bit `i % 8` of its mask byte.
        let bit = _mm_set1_epi64x(0x8040_2010_0804_0201_u64 as i64);
        let one = _mm_set1_epi8(1);
        let mut keys = [_mm_setzero_si128(); 64 / RANK_LANES];
        let mut top = _mm_setzero_si128();
        for ((chunk, bytes), key) in vectors.iter().enumerate().zip(&mut keys) {
            let mask = allowed >> (RANK_LANES * chunk);
            let spread = _mm_set_epi64x(
                ((mask >> 8 & 0xFF) * 0x0101_0101_0101_0101) as i64,
                ((mask & 0xFF) * 0x0101_0101_0101_0101) as i64,
            );
            let allows = _mm_cmpeq_epi8(_mm_and_si128(spread, bit), bit);
            let rank = _mm_xor_si128(
                _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()),
                lane_ways(chunk),
            );
            *key = _mm_and_si128(_mm_add_epi8(rank, one), allows);
            top = _mm_max_epu8(top, *key);
        }
        // Spread the maximum to every lane: swap halves, then 32-bit words,
        // then 16-bit halves, then bytes, taking the maximum at each step.
        top = _mm_max_epu8(top, _mm_shuffle_epi32::<0b01_00_11_10>(top));
        top = _mm_max_epu8(top, _mm_shuffle_epi32::<0b10_11_00_01>(top));
        top = _mm_max_epu8(
            top,
            _mm_or_si128(_mm_srli_epi32::<16>(top), _mm_slli_epi32::<16>(top)),
        );
        top = _mm_max_epu8(
            top,
            _mm_or_si128(_mm_srli_epi16::<8>(top), _mm_slli_epi16::<8>(top)),
        );
        let mut victims = 0u64;
        for (chunk, key) in keys[..vectors.len()].iter().enumerate() {
            let hit = _mm_movemask_epi8(_mm_cmpeq_epi8(*key, top)) as u64;
            victims |= hit << (RANK_LANES * chunk);
        }
        first_way(victims)
    }
}

#[cfg(not(target_arch = "x86_64"))]
use {lru_victim_portable as lru_victim, promote_portable as promote};

/// Prefetches one host cache line into all cache levels.
#[inline]
fn prefetch_line(line: &HostLine) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` needs only SSE, which every x86-64 CPU has, and
    // a prefetch never faults.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(std::ptr::from_ref(line).cast::<i8>(), _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = line;
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
        assert!(c
            .insert(b, true, LineOrigin::Nic, WayMask::first(1))
            .is_none());
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
        assert!(
            run(ReplacementPolicy::Lru),
            "LRU also keeps it when touched"
        );
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

    /// The per-way residency test the scan replaces: `tag` is present and
    /// holds `block`.
    fn holds(tag: u64, block: BlockAddr) -> bool {
        tag & TAG_PRESENT != 0 && tag >> TAG_FLAG_BITS == block.0
    }

    /// One xorshift64 step: the tests' deterministic operation stream.
    fn xorshift(x: &mut u64) -> u64 {
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }

    #[test]
    fn any_initial_permutation_picks_the_same_victims() {
        // Caches start with the identity permutation in every LRU row (and
        // rrpv 0 in every SRRIP byte). Empty ways' bytes are never read, so
        // any other starting permutation must evict exactly the same lines,
        // including once a full set has been partly invalidated and refilled
        // (the refilled ways move to the front while their neighbours keep
        // older ranks).
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Srrip] {
            let geometry = CacheGeometry {
                size_bytes: 8 * 4 * crate::BLOCK_BYTES,
                ways: 4,
                latency: 1,
            };
            let mut zeroed = SetAssocCache::with_policy(geometry, policy);
            let mut shuffled = SetAssocCache::with_policy(geometry, policy);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for set in 0..shuffled.sets {
                // A random permutation of the ranks, stored `rank ^ way`.
                let mut perm = [0u8, 1, 2, 3];
                for i in (1..4).rev() {
                    perm.swap(i, xorshift(&mut x) as usize % (i + 1));
                }
                for (w, byte) in shuffled.tags.row_mut(set).1[..4].iter_mut().enumerate() {
                    *byte = perm[w] ^ w as u8;
                }
            }
            let ranks = |c: &SetAssocCache| -> Vec<u8> {
                (0..c.sets)
                    .flat_map(|set| c.tags.row(set).1.to_vec())
                    .collect()
            };
            assert_ne!(ranks(&zeroed), ranks(&shuffled));

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
            let random = (0..4000).map(|_| {
                let x = xorshift(&mut x);
                let b = if x.is_multiple_of(3) {
                    BlockAddr(x % 64)
                } else {
                    set[(x >> 8) as usize % 12]
                };
                (x >> 20, b)
            });
            let ops: Vec<_> = scripted.chain(random).collect();
            for (op, b) in ops {
                assert_eq!(
                    step(&mut zeroed, op, b),
                    step(&mut shuffled, op, b),
                    "{policy:?}"
                );
            }
            assert_eq!(
                zeroed.iter_located_lines().collect::<Vec<_>>(),
                shuffled.iter_located_lines().collect::<Vec<_>>()
            );
        }
    }

    /// The replacement state as it was kept before rank bytes: a 64-bit
    /// stamp per way, `tick << 2 | rrpv`, with a per-cache tick bumped by
    /// every access and insertion. Only its observable behaviour matters:
    /// the rank cache must return the same lines and evict the same victims.
    struct StampCache {
        ways: usize,
        sets: u64,
        tags: Vec<u64>,
        stamps: Vec<u64>,
        tick: u64,
        resident: u64,
        srrip: bool,
    }

    impl StampCache {
        fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
            let n = geometry.sets() * geometry.ways;
            Self {
                ways: geometry.ways,
                sets: geometry.sets() as u64,
                tags: vec![0; n],
                stamps: vec![0; n],
                tick: 0,
                resident: 0,
                srrip: policy == ReplacementPolicy::Srrip,
            }
        }

        fn slots(&self, block: BlockAddr) -> std::ops::Range<usize> {
            let set = ((block.0.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % self.sets) as usize;
            set * self.ways..(set + 1) * self.ways
        }

        fn find(&self, block: BlockAddr) -> Option<usize> {
            self.slots(block).find(|&i| holds(self.tags[i], block))
        }

        fn peek(&self, block: BlockAddr) -> Option<Line> {
            self.find(block).map(|i| decode_tag(self.tags[i]))
        }

        fn access(&mut self, block: BlockAddr, dirty: bool) -> Option<Line> {
            self.tick += 1;
            let i = self.find(block)?;
            let old = self.tags[i];
            if dirty {
                self.tags[i] |= TAG_DIRTY;
            }
            self.stamps[i] = self.tick << 2;
            Some(decode_tag(old))
        }

        fn mark_dirty(&mut self, block: BlockAddr) -> bool {
            let hit = self.find(block);
            if let Some(i) = hit {
                self.tags[i] |= TAG_DIRTY;
            }
            hit.is_some()
        }

        fn invalidate(&mut self, block: BlockAddr) -> Option<Line> {
            let i = self.find(block)?;
            let old = self.tags[i];
            self.tags[i] = 0;
            self.resident -= 1;
            Some(decode_tag(old))
        }

        fn insert(
            &mut self,
            block: BlockAddr,
            dirty: bool,
            origin: LineOrigin,
            mask: WayMask,
        ) -> Option<Evicted> {
            self.tick += 1;
            let tick = self.tick;
            let insert_rrpv = if self.srrip { 2 } else { 0 };
            let slots = self.slots(block);
            if let Some(i) = self.find(block) {
                let was_dirty = self.tags[i] & TAG_DIRTY != 0;
                self.tags[i] = encode_tag(block, dirty || was_dirty, origin);
                self.stamps[i] = tick << 2;
                return None;
            }
            let allowed: Vec<usize> = slots
                .clone()
                .enumerate()
                .filter(|&(w, _)| mask.allows(w))
                .map(|(_, i)| i)
                .collect();
            if let Some(&i) = allowed.iter().find(|&&i| self.tags[i] & TAG_PRESENT == 0) {
                self.tags[i] = encode_tag(block, dirty, origin);
                self.stamps[i] = tick << 2 | insert_rrpv;
                self.resident += 1;
                return None;
            }
            let victim = if self.srrip {
                loop {
                    if let Some(&i) = allowed.iter().find(|&&i| self.stamps[i] & 3 >= 3) {
                        break i;
                    }
                    for &i in &allowed {
                        self.stamps[i] += 1;
                    }
                }
            } else {
                *allowed.iter().min_by_key(|&&i| self.stamps[i]).unwrap()
            };
            let old = decode_tag(self.tags[victim]);
            self.tags[victim] = encode_tag(block, dirty, origin);
            self.stamps[victim] = tick << 2 | insert_rrpv;
            Some(Evicted { line: old })
        }
    }

    #[test]
    fn ranks_replace_stamps_exactly() {
        // Random operation streams over a few hot sets, so sets fill,
        // evict under every mask shape and get partly invalidated, run
        // against the stamp model: every return value, every eviction and
        // the final contents must agree. Beside the paper's 12 and 20 ways,
        // 16 ways end the rank bytes on a vector boundary, 17 one byte past
        // it, and 64 fill four vectors.
        for policy in [ReplacementPolicy::Lru, ReplacementPolicy::Srrip] {
            for ways in [12, 16, 17, 20, 64] {
                let geometry = CacheGeometry {
                    size_bytes: (8 * ways) as u64 * crate::BLOCK_BYTES,
                    ways,
                    latency: 1,
                };
                let mut ranked = SetAssocCache::with_policy(geometry, policy);
                let mut stamped = StampCache::new(geometry, policy);
                let w = ways as u32;
                let masks = [
                    WayMask::ALL,
                    WayMask::first(2),
                    WayMask::range(2, w / 2),
                    WayMask::range(w / 2, w),
                ];
                // Two sets' worth of blocks (more than twice the ways each),
                // plus a sprinkle of blocks from anywhere.
                let hot: Vec<BlockAddr> = (0u64..)
                    .map(BlockAddr)
                    .filter(|&b| ranked.set_of(b) < 2)
                    .take(5 * ways)
                    .collect();
                let mut x = 0x2545_F491_4F6C_DD1D ^ (ways as u64) << 7;
                for n in 0..40_000 {
                    let r = xorshift(&mut x);
                    let b = if r.is_multiple_of(7) {
                        BlockAddr(r >> 40)
                    } else {
                        hot[(r >> 8) as usize % hot.len()]
                    };
                    let dirty = r >> 3 & 1 == 1;
                    let ctx = format!("{policy:?} {ways}-way op {n}");
                    match r >> 32 & 15 {
                        0..=3 => {
                            let mask = masks[(r >> 40) as usize % masks.len()];
                            let origin = if mask == WayMask::ALL {
                                LineOrigin::Cpu
                            } else {
                                LineOrigin::Nic
                            };
                            assert_eq!(
                                ranked.insert(b, dirty, origin, mask),
                                stamped.insert(b, dirty, origin, mask),
                                "{ctx}"
                            );
                        }
                        4..=7 => {
                            assert_eq!(ranked.access(b, dirty), stamped.access(b, dirty), "{ctx}")
                        }
                        8..=9 => assert_eq!(ranked.lookup(b), stamped.access(b, false), "{ctx}"),
                        10..=11 => assert_eq!(ranked.invalidate(b), stamped.invalidate(b), "{ctx}"),
                        12 => assert_eq!(ranked.mark_dirty(b), stamped.mark_dirty(b), "{ctx}"),
                        _ => assert_eq!(ranked.peek(b), stamped.peek(b), "{ctx}"),
                    }
                    assert_eq!(ranked.resident_lines(), stamped.resident, "{ctx}");
                }
                assert_eq!(&ranked.tags[..], &stamped.tags[..], "{policy:?} {ways}-way");
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn scan_matches_the_per_way_reference(
            geometry in 0usize..9,
            target in 0u64..6,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let ways = [1, 2, 3, 4, 12, 16, 17, 20, 64][geometry];
            let mut rows = SetRows::new(3, ways);
            let mut x = seed | 1;
            let stored_block = BlockAddr(xorshift(&mut x) % MAX_BLOCKS);
            let block = BlockAddr(match target {
                0 => 0,
                1 => MAX_BLOCKS - 1,
                2 => MAX_BLOCKS,
                // Its 32-bit key wraps onto `stored_block`'s.
                3 => stored_block.0 + MAX_BLOCKS,
                4 => u64::MAX >> TAG_FLAG_BITS,
                _ => stored_block.0,
            });
            let key = scan_key(block);
            let row_lines = rows.row_lines;
            let row_bytes = row_lines * HOST_LINE;
            for set in 0..3 {
                let bytes = rows.lines[set * row_lines..(set + 1) * row_lines].as_flattened_mut();
                // Every lane of the row, tag words and rank bytes alike:
                // empty ways, `block` or `stored_block` under any flags,
                // other blocks, and words with the present bit clear.
                for lane in 0..row_bytes / 4 {
                    let r = xorshift(&mut x);
                    let flags = r >> 8 & 7;
                    let word = match r % 6 {
                        0 => 0,
                        1 => u64::from(key) & !7 | flags,
                        2 => stored_block.0 << TAG_FLAG_BITS | flags,
                        3 => (r >> 16 & 0xFFFF_FFFF) & !TAG_PRESENT,
                        _ => (r >> 16 & 0xFFFF_FFFF) | TAG_PRESENT,
                    };
                    bytes[4 * lane..4 * lane + 4].copy_from_slice(&stored(word));
                }
                let (mut hits, mut empty) = (0u64, 0u64);
                for way in 0..ways {
                    let tag = rows.tag(set, way);
                    hits |= u64::from(holds(tag, block)) << way;
                    empty |= u64::from(tag & TAG_PRESENT == 0) << way;
                }
                let ctx = format!("{ways} ways, set {set}, block {block:?}");
                proptest::prop_assert_eq!(rows.scan(set, block), (hits, empty), "{}", ctx);
                // Both bodies agree on every lane they read, masked or not.
                let lines = &rows.lines(set)[..ways.div_ceil(LINE_WAYS)];
                proptest::prop_assert_eq!(
                    scan_lines(lines, key),
                    scan_lines_portable(lines, key),
                    "{}",
                    ctx
                );
            }
        }

        #[test]
        fn rank_vectors_match_the_portable_bodies(
            geometry in 0usize..11,
            mask_kind in 0usize..5,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let ways = [1, 2, 3, 4, 12, 16, 17, 20, 25, 32, 64][geometry];
            let mut rows = SetRows::new(1, ways);
            let mut x = seed | 1;
            // Random bytes everywhere, padding included, then a random
            // permutation of the ranks in the first `ways` rank bytes.
            for byte in rows.lines.as_flattened_mut() {
                *byte = xorshift(&mut x) as u8;
            }
            let mut perm: Vec<u8> = (0..ways as u8).collect();
            for i in (1..ways).rev() {
                perm.swap(i, xorshift(&mut x) as usize % (i + 1));
            }
            for (w, byte) in rows.row_mut(0).1[..ways].iter_mut().enumerate() {
                *byte = perm[w] ^ w as u8;
            }
            let in_row = u64::MAX >> (64 - ways);
            let mask = match mask_kind {
                0 => WayMask::ALL,
                1 => WayMask::first(1),
                2 => WayMask::first(2),
                3 => WayMask(1 << (xorshift(&mut x) % ways as u64)),
                // Any non-empty mask, bits past `ways` included.
                _ => WayMask(
                    std::iter::repeat_with(|| xorshift(&mut x))
                        .find(|m| m & in_row != 0)
                        .expect("an endless stream finds a mask"),
                ),
            };
            // A short stream as `insert` runs it: pick the victim, promote a
            // random way as a hit would, then the victim as its fill does (so
            // a one-way mask next finds its way at rank 0).
            for step in 0..8 {
                let ctx = format!("{ways} ways, {mask}, step {step}");
                let before = rows.lines.as_flattened().to_vec();
                let ranks = rows.row(0).1;
                let victim = lru_victim(ranks, ways, mask);
                let expected = lru_victim_portable(ranks, ways, mask);
                proptest::prop_assert_eq!(victim, expected, "{}", ctx);
                proptest::prop_assert!(mask.allows(victim) && victim < ways, "{}", ctx);
                for way in [xorshift(&mut x) as usize % ways, victim] {
                    let mut expected = rows.row(0).1.to_vec();
                    promote_portable(&mut expected, ways, way);
                    promote(rows.row_mut(0).1, ways, way);
                    proptest::prop_assert_eq!(rows.row(0).1, &expected[..], "{} way {}", ctx, way);
                }
                // Only the first `ways` rank bytes may change.
                let after = rows.lines.as_flattened();
                let (tag_end, rank_end) = (4 * ways, 5 * ways);
                proptest::prop_assert_eq!(&after[..tag_end], &before[..tag_end], "{}", ctx);
                proptest::prop_assert_eq!(&after[rank_end..], &before[rank_end..], "{}", ctx);
            }
        }
    }

    #[test]
    fn fastmod_set_index_equals_the_remainder() {
        use crate::hierarchy::MachineConfig;
        let machines = [
            MachineConfig::paper_default(),
            MachineConfig::tiny_for_tests(),
        ];
        let geometry_sets = machines
            .iter()
            .flat_map(|m| [m.l1, m.l2, m.llc])
            .map(|g| g.sets() as u64);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for d in geometry_sets.chain([1, 3, 49_152, (1 << 31) - 1]) {
            let m = fastmod_magic(d);
            let edges = [0, 1, d - 1, d, u32::MAX as u64];
            let random = (0..100_000).map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x >> 32
            });
            for a in edges.into_iter().chain(random) {
                assert_eq!(fastmod(a, m, d), a % d, "{a} mod {d}");
            }
        }
    }

    #[test]
    fn access_marks_a_hit_dirty_and_returns_the_old_line() {
        let mut c = small();
        let b = BlockAddr(5);
        assert!(c.access(b, true).is_none(), "a miss installs nothing");
        assert!(c.peek(b).is_none());
        c.insert(b, false, LineOrigin::Cpu, WayMask::ALL);
        assert!(!c.access(b, false).unwrap().dirty);
        assert!(!c.peek(b).unwrap().dirty, "a read leaves the line clean");
        assert!(!c.access(b, true).unwrap().dirty, "the line as it was");
        assert!(c.peek(b).unwrap().dirty);
        assert!(c.access(b, true).unwrap().dirty);
    }

    #[test]
    fn rows_start_on_host_lines_in_heap_and_mapped_tables() {
        use crate::hierarchy::MachineConfig;
        use crate::table::MAPS_LARGE_TABLES;
        let paper = MachineConfig::paper_default();
        for (name, g, lines) in [
            ("L1", paper.l1, 1),
            ("L2", paper.l2, 2),
            ("LLC", paper.llc, 1),
        ] {
            // Padding the rank bytes to whole vectors keeps the paper's rows
            // at 64 B (12 ways) and 128 B (20 ways).
            let rows = SetRows::new(1, g.ways);
            assert_eq!(rows.row_lines * HOST_LINE, lines * 64, "{name}: row bytes");
            assert!(
                rows.meta_bytes() <= lines * 64,
                "{name}: rank vectors fit the row"
            );
            // 8 sets stay on the heap; 2048 sets (128 KiB or more) get a
            // mapping where the target supports one.
            for (sets, mapped) in [(8, false), (2048, MAPS_LARGE_TABLES)] {
                let c = SetAssocCache::new(CacheGeometry {
                    size_bytes: (sets * g.ways) as u64 * crate::BLOCK_BYTES,
                    ..g
                });
                assert_eq!(c.tags.row_lines, lines, "{name}: host lines per set");
                assert_eq!(c.tags.lines.is_mapped(), mapped, "{name}, {sets} sets");
                for set in 0..sets {
                    let row = c.tags.lines(set);
                    assert_eq!(row.len(), lines);
                    assert_eq!(row.as_ptr() as usize % HOST_LINE, 0, "{name} set {set}");
                }
            }
        }
    }

    #[test]
    fn largest_allowed_block_round_trips_through_a_tag_word() {
        let top = BlockAddr(MAX_BLOCKS - 1);
        for (dirty, origin) in [(true, LineOrigin::Nic), (false, LineOrigin::Cpu)] {
            let line = Line {
                block: top,
                dirty,
                origin,
            };
            let mut c = small();
            c.insert(top, dirty, origin, WayMask::ALL);
            assert_eq!(c.peek(top), Some(line));
            assert_eq!(c.iter_lines().collect::<Vec<_>>(), [line]);
            assert_eq!(c.invalidate(top), Some(line));
        }
    }

    #[test]
    #[should_panic(expected = "beyond the simulated address limit")]
    fn tag_words_reject_blocks_past_the_limit() {
        small().insert(BlockAddr(MAX_BLOCKS), false, LineOrigin::Cpu, WayMask::ALL);
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
