//! Property-based tests over the substrate's core data structures:
//! set-associative cache invariants, coherence-directory bookkeeping,
//! histogram correctness against a naive model, address-map classification,
//! and DRAM timing monotonicity.

use proptest::collection::vec;
use proptest::prelude::*;

use sweeper_sim::addr::{blocks_of, Addr, AddressMap, BlockAddr, RegionKind};
use sweeper_sim::cache::{CacheGeometry, LineOrigin, SetAssocCache, WayMask};
use sweeper_sim::coherence::{Directory, ReferenceDirectory};
use sweeper_sim::dram::{Dram, DramConfig, DramOp};
use sweeper_sim::stats::Histogram;
use sweeper_sim::BLOCK_BYTES;

fn small_cache() -> SetAssocCache {
    SetAssocCache::new(CacheGeometry {
        size_bytes: 32 * 64,
        ways: 4,
        latency: 4,
    })
}

/// Operations the cache model is exercised with.
#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64, bool),
    Lookup(u64),
    Invalidate(u64),
    MarkDirty(u64),
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    let block = 0u64..64;
    prop_oneof![
        (block.clone(), any::<bool>()).prop_map(|(b, d)| CacheOp::Insert(b, d)),
        block.clone().prop_map(CacheOp::Lookup),
        block.clone().prop_map(CacheOp::Invalidate),
        block.prop_map(CacheOp::MarkDirty),
    ]
}

proptest! {
    /// Whatever sequence of operations runs, the cache never exceeds its
    /// capacity, and a block that was just inserted is immediately findable.
    #[test]
    fn cache_capacity_and_presence_invariants(ops in vec(cache_op(), 1..300)) {
        let mut cache = small_cache();
        let mut model = std::collections::HashSet::new();
        for op in ops {
            match op {
                CacheOp::Insert(b, d) => {
                    if let Some(ev) = cache.insert(BlockAddr(b), d, LineOrigin::Cpu, WayMask::ALL) {
                        model.remove(&ev.line.block.0);
                    }
                    model.insert(b);
                    prop_assert!(cache.peek(BlockAddr(b)).is_some());
                }
                CacheOp::Lookup(b) => {
                    prop_assert_eq!(cache.lookup(BlockAddr(b)).is_some(), model.contains(&b));
                }
                CacheOp::Invalidate(b) => {
                    let was = cache.invalidate(BlockAddr(b)).is_some();
                    prop_assert_eq!(was, model.remove(&b));
                }
                CacheOp::MarkDirty(b) => {
                    let found = cache.mark_dirty(BlockAddr(b));
                    prop_assert_eq!(found, model.contains(&b));
                    if found {
                        prop_assert!(cache.peek(BlockAddr(b)).unwrap().dirty);
                    }
                }
            }
            prop_assert!(cache.resident_lines() <= 32);
            prop_assert_eq!(cache.resident_lines() as usize, model.len());
            prop_assert_eq!(cache.iter_lines().count(), model.len());
        }
    }

    /// Way-masked insertion never evicts a line outside the mask's ways (we
    /// observe this indirectly: lines inserted under a disjoint mask are
    /// never displaced by masked insertions).
    #[test]
    fn masked_insertions_do_not_displace_other_partitions(
        protected in vec(0u64..512, 1..8),
        churn in vec(512u64..4096, 1..200),
    ) {
        let mut cache = small_cache();
        let low = WayMask::first(2);
        let high = WayMask::range(2, 4);
        let mut kept = std::collections::HashSet::new();
        for b in protected {
            if let Some(ev) = cache.insert(BlockAddr(b), true, LineOrigin::Cpu, high) {
                kept.remove(&ev.line.block.0);
            }
            kept.insert(b);
        }
        for b in churn {
            if kept.contains(&b) {
                continue;
            }
            cache.insert(BlockAddr(b), true, LineOrigin::Nic, low);
        }
        for b in kept {
            prop_assert!(
                cache.peek(BlockAddr(b)).is_some(),
                "block {b} in the protected partition was displaced"
            );
        }
    }

    /// The directory's sharer sets behave like a map of sets, and dirty
    /// ownership is always one of the sharers.
    #[test]
    fn directory_matches_reference_model(
        ops in vec((0u64..32, 0u16..8, 0u8..3), 1..300)
    ) {
        let mut dir = Directory::new();
        let mut model: std::collections::HashMap<u64, std::collections::BTreeSet<u16>> =
            std::collections::HashMap::new();
        for (block, core, op) in ops {
            let b = BlockAddr(block);
            match op {
                0 => {
                    dir.add_sharer(b, core);
                    model.entry(block).or_default().insert(core);
                }
                1 => {
                    dir.remove_sharer(b, core);
                    if let Some(s) = model.get_mut(&block) {
                        s.remove(&core);
                        if s.is_empty() {
                            model.remove(&block);
                        }
                    }
                }
                _ => {
                    dir.set_dirty_owner(b, core);
                    let s = model.entry(block).or_default();
                    s.clear();
                    s.insert(core);
                }
            }
            let expect: Vec<u16> = model.get(&block).map(|s| s.iter().copied().collect()).unwrap_or_default();
            prop_assert_eq!(dir.sharers(b).to_vec(), expect);
            if let Some(owner) = dir.dirty_owner(b) {
                prop_assert!(dir.sharers(b).contains(owner));
            }
        }
    }

    /// Differential test: the open-addressed [`Directory`] must behave exactly
    /// like the straightforward `HashMap`-backed [`ReferenceDirectory`] under
    /// arbitrary interleavings of every mutating operation, including bulk
    /// `drop_block` (which exercises backward-shift deletion chains). The
    /// directory starts at its smallest table, so up to 96 live blocks also
    /// drive it through several grows.
    #[test]
    fn open_addressed_directory_matches_hashmap_reference(
        ops in vec((0u64..96, 0u16..12, 0u8..5), 1..400)
    ) {
        let mut dir = Directory::new();
        let mut reference = ReferenceDirectory::new();
        for (block, core, op) in ops {
            // Spread keys so several share a home slot under the Fibonacci
            // hash (stride collisions) while others land far apart.
            let b = BlockAddr(block << (block % 7));
            match op {
                0 => {
                    dir.add_sharer(b, core);
                    reference.add_sharer(b, core);
                }
                1 => {
                    dir.remove_sharer(b, core);
                    reference.remove_sharer(b, core);
                }
                2 => {
                    dir.set_dirty_owner(b, core);
                    reference.set_dirty_owner(b, core);
                }
                3 => {
                    dir.clear_dirty(b);
                    reference.clear_dirty(b);
                }
                _ => {
                    prop_assert_eq!(
                        dir.drop_block(b).to_vec(),
                        reference.drop_block(b).to_vec()
                    );
                }
            }
            prop_assert_eq!(dir.sharers(b).to_vec(), reference.sharers(b).to_vec());
            prop_assert_eq!(dir.dirty_owner(b), reference.dirty_owner(b));
            prop_assert_eq!(dir.tracked_blocks(), reference.tracked_blocks());
            for ex in 0..12 {
                prop_assert_eq!(
                    dir.sharers(b).without(ex).to_vec(),
                    reference.sharers(b).without(ex).to_vec()
                );
            }
        }
    }

    /// Histogram mean/percentiles agree with a naive sorted-vector model
    /// (within the geometric buckets' documented precision).
    #[test]
    fn histogram_agrees_with_naive_model(samples in vec(0u64..2_000_000, 1..400)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.max(), *sorted.last().unwrap());
        let naive_mean = sorted.iter().map(|&v| v as f64).sum::<f64>() / sorted.len() as f64;
        prop_assert!((h.mean() - naive_mean).abs() < 1e-6);
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
            let naive = sorted[idx];
            let est = h.percentile(q);
            // Exact below 1024; ≤ ~3.2% under-estimate above (geometric buckets).
            prop_assert!(est <= naive, "estimate {est} above exact {naive}");
            prop_assert!(
                est as f64 >= naive as f64 * 0.96 - 1.0,
                "estimate {est} too far below exact {naive} at q={q}"
            );
        }
    }

    /// Address-map classification: every byte of an allocated region
    /// classifies as that region; bytes outside classify as Other.
    #[test]
    fn address_map_classification_is_total(sizes in vec(1u64..10_000, 1..20)) {
        let mut map = AddressMap::new();
        let mut regions = Vec::new();
        for (i, len) in sizes.iter().enumerate() {
            let kind = match i % 3 {
                0 => RegionKind::Rx { core: (i % 7) as u16 },
                1 => RegionKind::Tx { core: (i % 7) as u16 },
                _ => RegionKind::App,
            };
            regions.push((map.alloc(*len, kind), *len, kind));
        }
        for (base, len, kind) in regions {
            prop_assert_eq!(map.classify(base), kind);
            prop_assert_eq!(map.classify(base.offset(len - 1)), kind);
            for block in blocks_of(base, len) {
                prop_assert_eq!(map.classify_block(block), kind);
            }
        }
        prop_assert_eq!(map.classify(Addr(0)), RegionKind::Other);
    }

    /// Constant-time classification answers exactly what a binary search
    /// over the allocated regions does: for tiny regions packed many to a
    /// 64 KiB index chunk, regions spanning chunks, and addresses below the
    /// allocation base, on every region boundary, at the allocation
    /// frontier and beyond it.
    #[test]
    fn address_map_classification_equals_binary_search(
        sizes in vec(prop_oneof![1u64..300, 1u64..300_000], 1..300),
        probes in vec(any::<u64>(), 1..400),
    ) {
        use std::cmp::Ordering;
        let mut map = AddressMap::new();
        let mut regions = Vec::new(); // (start, end, kind)
        for (i, &len) in sizes.iter().enumerate() {
            let kind = match i % 4 {
                0 => RegionKind::Rx { core: (i % 5) as u16 },
                1 => RegionKind::Tx { core: (i % 5) as u16 },
                2 => RegionKind::App,
                _ => RegionKind::Rx { core: 7 },
            };
            let start = map.alloc(len, kind).0;
            regions.push((start, start + len.div_ceil(BLOCK_BYTES) * BLOCK_BYTES, kind));
        }
        let binary_search = |a: u64| {
            let found = regions.binary_search_by(|&(start, end, _)| {
                if a < start {
                    Ordering::Greater
                } else if a >= end {
                    Ordering::Less
                } else {
                    Ordering::Equal
                }
            });
            found.map_or(RegionKind::Other, |i| regions[i].2)
        };
        let base = regions[0].0;
        let next = regions[regions.len() - 1].1;
        prop_assert_eq!(next - base, map.allocated_bytes());
        let boundaries = regions.iter().flat_map(|&(start, end, _)| [start, end - 1, end]);
        let edges = [0, 1, base - 1, next, next + 1, next + (1 << 16), u64::MAX];
        let random = probes.iter().map(|&r| match r % 3 {
            0 => (r >> 2) % base,
            1 => base + (r >> 2) % (next - base + (1 << 17)),
            _ => r,
        });
        for a in boundaries.chain(edges).chain(random) {
            prop_assert_eq!(map.classify(Addr(a)), binary_search(a), "address {:#x}", a);
        }
    }

    /// DRAM: completion latency is always at least the burst length, reads
    /// from a monotone clock never complete out of proportion, and the
    /// latency histogram records every read.
    #[test]
    fn dram_timing_sanity(blocks in vec((0u64..100_000, any::<bool>()), 1..300)) {
        let mut dram = Dram::new(DramConfig::paper_default());
        let mut now = 0;
        let mut reads = 0u64;
        for (b, is_write) in blocks {
            let op = if is_write { DramOp::Write } else { DramOp::Read };
            let acc = dram.access(BlockAddr(b), now, op);
            prop_assert!(acc.latency >= dram.config().t_bl);
            prop_assert!(acc.channel < dram.config().channels);
            if !is_write {
                reads += 1;
            }
            now += 13; // monotone issue clock
        }
        prop_assert_eq!(dram.read_latency().count(), reads);
        let totals: u64 = dram.channel_counts().iter().map(|(r, w)| r + w).sum();
        prop_assert_eq!(totals, dram.read_latency().count()
            + dram.channel_counts().iter().map(|(_, w)| w).sum::<u64>());
    }

    /// `percentile(q)` is monotone non-decreasing in q — the flight
    /// recorder's online outlier threshold depends on this: raising the
    /// quantile must never lower the threshold.
    #[test]
    fn histogram_percentile_is_monotone_in_q(
        samples in vec(0u64..2_000_000, 1..400),
        raw_qs in vec(0u32..1_000_001, 2..32),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut qs: Vec<f64> = raw_qs.iter().map(|&r| r as f64 / 1e6).collect();
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = h.percentile(qs[0]);
        for &q in &qs[1..] {
            let cur = h.percentile(q);
            prop_assert!(
                cur >= prev,
                "percentile({q}) = {cur} dropped below previous {prev}"
            );
            prev = cur;
        }
        // The extremes bracket everything.
        prop_assert!(h.percentile(0.0) <= h.percentile(1.0));
        prop_assert!(h.percentile(1.0) <= h.max());
    }

    /// The CDF is monotone in both coordinates, ends at fraction 1.0, and
    /// its total mass equals the sample count.
    #[test]
    fn histogram_cdf_is_monotone_and_complete(samples in vec(0u64..2_000_000, 1..400)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let cdf = h.cdf();
        prop_assert!(!cdf.is_empty());
        for w in cdf.windows(2) {
            prop_assert!(w[1].0 > w[0].0, "cdf values not strictly increasing");
            prop_assert!(w[1].1 >= w[0].1, "cdf fractions not monotone");
        }
        let last = cdf.last().unwrap();
        prop_assert!((last.1 - 1.0).abs() < 1e-12, "cdf must end at 1.0");
    }

    /// blocks_of covers exactly the bytes of the range: union of block byte
    /// ranges ⊇ [addr, addr+len) and every block intersects the range.
    #[test]
    fn blocks_of_covers_range(start in 0u64..100_000, len in 0u64..5_000) {
        let blocks: Vec<BlockAddr> = blocks_of(Addr(start), len).collect();
        if len == 0 {
            prop_assert!(blocks.is_empty());
        } else {
            let first = blocks.first().unwrap();
            let last = blocks.last().unwrap();
            prop_assert!(first.base().0 <= start);
            prop_assert!(last.base().0 + 64 >= start + len);
            // Contiguous, no duplicates.
            for w in blocks.windows(2) {
                prop_assert_eq!(w[1].0, w[0].0 + 1);
            }
            // Every block intersects the byte range.
            for b in &blocks {
                let lo = b.base().0;
                prop_assert!(lo < start + len && lo + 64 > start);
            }
        }
    }
}

/// Deterministic edge cases the flight recorder's online threshold relies on.
mod histogram_edges {
    use sweeper_sim::stats::Histogram;

    #[test]
    fn empty_histogram_percentile_is_zero_and_cdf_empty() {
        let h = Histogram::new();
        for q in [0.0, 0.5, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 0, "empty histogram at q={q}");
        }
        assert!(h.cdf().is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn single_bucket_dominates_every_quantile() {
        let mut h = Histogram::new();
        for _ in 0..17 {
            h.record(42);
        }
        for q in [0.0, 0.25, 0.5, 0.999, 1.0] {
            assert_eq!(h.percentile(q), 42, "single-value histogram at q={q}");
        }
        assert_eq!(h.cdf(), vec![(42, 1.0)]);
    }

    #[test]
    fn single_geometric_bucket_reports_its_lower_bound() {
        let mut h = Histogram::new();
        // Value above LINEAR_MAX lands in a geometric bucket; the estimate
        // is the bucket's lower bound, never above the recorded value.
        h.record(100_000);
        let est = h.percentile(0.5);
        assert!(est <= 100_000);
        assert!(est as f64 >= 100_000.0 * 0.96);
        assert_eq!(h.percentile(1.0), est);
    }

    #[test]
    fn q_zero_returns_minimum_and_q_one_returns_maximum_bucket() {
        let mut h = Histogram::new();
        for v in [3, 7, 500, 900] {
            h.record(v);
        }
        // q=0 clamps to the first sample; q=1 walks to the last. All values
        // are below LINEAR_MAX so both are exact.
        assert_eq!(h.percentile(0.0), 3);
        assert_eq!(h.percentile(1.0), 900);
    }

    #[test]
    #[should_panic(expected = "quantile out of range")]
    fn percentile_rejects_out_of_range_quantiles() {
        Histogram::new().percentile(1.5);
    }
}
