//! MICA-style key-value store.
//!
//! Reimplements the memory behaviour of the MICA KVS as ported to the
//! Scale-Out NUMA transport (Appendix A): a lossy hash index of 1 M
//! cache-line-sized buckets, a 256 MB circular log partitioned per core, and
//! a write-heavy 5/95 GET/SET mix over 2.4 M items with zipf-0.99 key
//! popularity.
//!
//! Per request the store issues the same reference pattern as MICA:
//!
//! * **SET**: read the request packet (header + key + value) from the RX
//!   buffer, probe the key's bucket, append the value at the owning core's
//!   log head, update the bucket pointer, reply with a small ack.
//! * **GET**: read the request header + key, probe the bucket, read the
//!   item's current log entry, reply with the value.
//!
//! SETs move an item's location to the log head (the live-address table),
//! so hot items exhibit MICA's real locality: their latest value is the most
//! recently written log block.

use std::collections::HashMap;
use std::hash::BuildHasherDefault;

use sweeper_core::workload::{CoreEnv, TxAction, Workload};
use sweeper_nic::packet::Packet;
use sweeper_sim::addr::{Addr, RegionKind};
use sweeper_sim::hierarchy::MemorySystem;
use sweeper_sim::{Cycle, KeyHasher, BLOCK_BYTES};

use crate::dist::Zipf;

/// Request header size (transport + KVS opcode + key).
pub const HEADER_BYTES: u64 = 64;

/// KVS configuration.
#[derive(Debug, Clone, Copy)]
pub struct KvsConfig {
    /// Number of key-value pairs (Appendix A: 2.4 M).
    pub items: u64,
    /// Number of cache-line-sized index buckets (Appendix A: 1 M).
    pub buckets: u64,
    /// Circular log capacity in bytes (Appendix A: 256 MB).
    pub log_bytes: u64,
    /// Value size in bytes (512 B or 1 KB in the evaluation).
    pub item_bytes: u64,
    /// Fraction of GET requests (Appendix A: 5/95 GET/SET ⇒ 0.05).
    pub get_ratio: f64,
    /// Zipf exponent of key popularity (Appendix A: 0.99).
    pub zipf_exponent: f64,
    /// Fixed per-request compute (hashing, parsing, dispatch), cycles.
    pub compute_cycles: Cycle,
    /// Cores the log is partitioned across (one append head each).
    pub cores: u16,
}

impl KvsConfig {
    /// Appendix A's configuration with 1 KB items on 24 cores.
    pub fn paper_default() -> Self {
        Self {
            items: 2_400_000,
            buckets: 1 << 20,
            log_bytes: 256 << 20,
            item_bytes: 1024,
            get_ratio: 0.05,
            zipf_exponent: 0.99,
            compute_cycles: 150,
            cores: 24,
        }
    }

    /// Same configuration with a different item size (512 B in §VI-A).
    pub fn with_item_bytes(mut self, bytes: u64) -> Self {
        self.item_bytes = bytes;
        self
    }

    /// Scaled-down store for fast unit tests (same structure).
    pub fn small_for_tests() -> Self {
        Self {
            items: 4_096,
            buckets: 1_024,
            log_bytes: 1 << 20,
            item_bytes: 1024,
            get_ratio: 0.05,
            zipf_exponent: 0.99,
            compute_cycles: 200,
            cores: 2,
        }
    }
}

/// The MICA-style store.
#[derive(Debug)]
pub struct MicaKvs {
    cfg: KvsConfig,
    buckets_base: Addr,
    log_base: Addr,
    /// Per-core log partition size in bytes (block-aligned).
    partition_bytes: u64,
    /// Per-core append offsets within their partitions.
    log_heads: Vec<u64>,
    /// Log address of each item a SET has moved, keyed by item. An item
    /// with no entry is still at its populated address,
    /// [`MicaKvs::initial_addr`], so set-up only clears the map and it
    /// holds no more entries than there are distinct keys SET.
    moved: HashMap<u64, u64, BuildHasherDefault<KeyHasher>>,
    zipf: Zipf,
    stats: KvsStats,
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvsStats {
    /// GET requests served.
    pub gets: u64,
    /// SET requests served.
    pub sets: u64,
}

impl MicaKvs {
    /// Creates the store; regions are allocated lazily in
    /// [`Workload::setup`].
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero or the log is smaller than one
    /// item per core.
    pub fn new(cfg: KvsConfig) -> Self {
        assert!(cfg.items > 0 && cfg.buckets > 0, "empty store");
        assert!(cfg.cores > 0, "store needs at least one core");
        let slot = Self::slot_bytes(&cfg);
        let partition_bytes = (cfg.log_bytes / cfg.cores as u64) / slot * slot;
        assert!(
            partition_bytes >= slot,
            "log too small for one item per core"
        );
        Self {
            zipf: Zipf::new(cfg.items, cfg.zipf_exponent),
            buckets_base: Addr(0),
            log_base: Addr(0),
            partition_bytes,
            log_heads: vec![0; cfg.cores as usize],
            moved: HashMap::default(),
            stats: KvsStats::default(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &KvsConfig {
        &self.cfg
    }

    /// Operation counters.
    pub fn stats(&self) -> &KvsStats {
        &self.stats
    }

    /// Log slot size: item rounded up to whole blocks (MICA log entries are
    /// 8-byte aligned; block alignment keeps entries from straddling
    /// unrelated lines in the model).
    fn slot_bytes(cfg: &KvsConfig) -> u64 {
        cfg.item_bytes.div_ceil(BLOCK_BYTES) * BLOCK_BYTES
    }

    fn bucket_addr(&self, key: u64) -> Addr {
        // Multiplicative hash to a bucket line.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 16;
        self.buckets_base
            .offset((h % self.cfg.buckets) * BLOCK_BYTES)
    }

    /// Appends an item at `core`'s log head and returns its new address.
    fn append(&mut self, core: u16, key: u64) -> Addr {
        let slot = Self::slot_bytes(&self.cfg);
        let part_base = self.partition_bytes * core as u64;
        let head = &mut self.log_heads[core as usize];
        let addr = self.log_base.offset(part_base + *head);
        *head = (*head + slot) % self.partition_bytes;
        self.moved.insert(key, addr.0);
        addr
    }

    /// Current log address of `key`.
    fn item_addr(&self, key: u64) -> Addr {
        match self.moved.get(&key) {
            Some(&a) => Addr(a),
            None => self.initial_addr(key),
        }
    }

    /// Where the populate pass leaves `key`: keys are appended round-robin,
    /// key `k` on core `k % cores`, so `k` is the `j`-th append on its core
    /// (keys start at 1, so core 0's first key is `cores`).
    fn initial_addr(&self, key: u64) -> Addr {
        let cores = self.cfg.cores as u64;
        let core = key % cores;
        let j = key / cores - u64::from(core == 0);
        let slot = Self::slot_bytes(&self.cfg);
        self.log_base
            .offset(core * self.partition_bytes + j * slot % self.partition_bytes)
    }
}

impl Workload for MicaKvs {
    fn name(&self) -> &str {
        "mica-kvs"
    }

    fn setup(&mut self, mem: &mut MemorySystem) {
        self.buckets_base = mem
            .address_map_mut()
            .alloc(self.cfg.buckets * BLOCK_BYTES, RegionKind::App);
        self.log_base = mem.address_map_mut().alloc(
            self.cfg.cores as u64 * self.partition_bytes,
            RegionKind::App,
        );
        // Populate: every item gets an initial log location, spread over the
        // partitions round-robin, as if loaded before the measurement. The
        // locations are `initial_addr`'s closed form; each core's head ends
        // one slot past its last key's.
        self.moved.clear();
        let (items, cores) = (self.cfg.items, self.cfg.cores as u64);
        let slot = Self::slot_bytes(&self.cfg);
        for (core, head) in (0..cores).zip(&mut self.log_heads) {
            let appended = (items + cores - core) / cores - u64::from(core == 0);
            *head = appended * slot % self.partition_bytes;
        }
    }

    fn handle_packet(&mut self, packet: &Packet, env: &mut CoreEnv<'_>) -> TxAction {
        let key = self.zipf.sample(env.rng());
        let is_get = env.rng().chance(self.cfg.get_ratio);
        env.compute(self.cfg.compute_cycles);
        let bucket = self.bucket_addr(key);
        if is_get {
            self.stats.gets += 1;
            // Parse header + key from the RX buffer.
            env.read(packet.addr, HEADER_BYTES.min(packet.bytes));
            env.read(bucket, BLOCK_BYTES);
            let item = self.item_addr(key);
            env.read(item, self.cfg.item_bytes);
            TxAction::Reply {
                bytes: HEADER_BYTES + self.cfg.item_bytes,
            }
        } else {
            self.stats.sets += 1;
            // SETs carry the value: consume the whole request packet.
            env.read(packet.addr, packet.bytes);
            env.read(bucket, BLOCK_BYTES);
            let dest = self.append(env.core(), key);
            env.write(dest, self.cfg.item_bytes);
            env.write(bucket, BLOCK_BYTES);
            TxAction::Reply {
                bytes: HEADER_BYTES,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sweeper_core::workload::Op;
    use sweeper_nic::packet::PacketId;
    use sweeper_sim::engine::SimRng;
    use sweeper_sim::hierarchy::MachineConfig;

    fn setup() -> (MicaKvs, MemorySystem, SimRng) {
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut kvs = MicaKvs::new(KvsConfig::small_for_tests());
        kvs.setup(&mut mem);
        (kvs, mem, SimRng::seeded(1))
    }

    fn drive(
        kvs: &mut MicaKvs,
        pkt: &Packet,
        mem: &mut MemorySystem,
        rng: &mut sweeper_sim::engine::SimRng,
        t: u64,
    ) -> (TxAction, u64) {
        sweeper_core::workload::drive_packet(kvs, pkt, mem, rng, t)
    }

    fn rx_packet(mem: &mut MemorySystem, bytes: u64) -> Packet {
        let addr = mem
            .address_map_mut()
            .alloc(bytes, RegionKind::Rx { core: 0 });
        mem.nic_write(addr, bytes, 0);
        Packet {
            id: PacketId(0),
            core: 0,
            bytes,
            arrival: 0,
            delivered: 0,
            addr,
        }
    }

    #[test]
    fn config_defaults_match_appendix_a() {
        let cfg = KvsConfig::paper_default();
        assert_eq!(cfg.items, 2_400_000);
        assert_eq!(cfg.buckets, 1 << 20);
        assert_eq!(cfg.log_bytes, 256 << 20);
        assert!((cfg.get_ratio - 0.05).abs() < 1e-12);
        assert!((cfg.zipf_exponent - 0.99).abs() < 1e-12);
        assert_eq!(cfg.with_item_bytes(512).item_bytes, 512);
    }

    #[test]
    fn setup_allocates_index_and_log() {
        let (kvs, mem, _) = setup();
        let cfg = kvs.config();
        let expected_min = cfg.buckets * BLOCK_BYTES + kvs.partition_bytes * cfg.cores as u64;
        assert!(mem.address_map().allocated_bytes() >= expected_min);
        // Every item has a live address inside the log region.
        for key in 1..=cfg.items {
            let a = kvs.item_addr(key);
            assert!(a.0 >= kvs.log_base.0);
            assert!(a.0 < kvs.log_base.0 + cfg.cores as u64 * kvs.partition_bytes);
        }
    }

    #[test]
    fn closed_form_setup_matches_the_populate_loop() {
        let odd = KvsConfig {
            items: 37,
            log_bytes: 5 * 3 * 1024,
            cores: 5,
            ..KvsConfig::small_for_tests()
        };
        for cfg in [
            KvsConfig::small_for_tests(),
            KvsConfig::paper_default(),
            KvsConfig::paper_default().with_item_bytes(512),
            odd,
        ] {
            let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
            let mut kvs = MicaKvs::new(cfg);
            kvs.setup(&mut mem);
            // The round-robin append loop set-up used to run.
            let slot = MicaKvs::slot_bytes(&cfg);
            let mut heads = vec![0u64; cfg.cores as usize];
            for key in 1..=cfg.items {
                let core = key % cfg.cores as u64;
                let head = &mut heads[core as usize];
                let expected = kvs.log_base.offset(kvs.partition_bytes * core + *head);
                *head = (*head + slot) % kvs.partition_bytes;
                assert_eq!(kvs.item_addr(key), expected, "key {key} of {cfg:?}");
            }
            assert_eq!(kvs.log_heads, heads, "{cfg:?}");
        }
    }

    #[test]
    fn requests_mix_is_write_heavy() {
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        for i in 0..2_000u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
        }
        let s = *kvs.stats();
        assert_eq!(s.gets + s.sets, 2_000);
        let get_frac = s.gets as f64 / 2_000.0;
        assert!(
            (get_frac - 0.05).abs() < 0.03,
            "GET fraction {get_frac} should be ~0.05"
        );
    }

    #[test]
    fn get_replies_with_item_and_set_with_ack() {
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        let mut saw_get = false;
        let mut saw_set = false;
        for i in 0..500u64 {
            let gets_before = kvs.stats().gets;
            match drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000).0 {
                TxAction::Reply { bytes } => {
                    if kvs.stats().gets > gets_before {
                        assert_eq!(bytes, HEADER_BYTES + 1024);
                        saw_get = true;
                    } else {
                        assert_eq!(bytes, HEADER_BYTES);
                        saw_set = true;
                    }
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(saw_get && saw_set);
    }

    #[test]
    fn sets_advance_the_log_head_circularly() {
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        let slot = MicaKvs::slot_bytes(kvs.config());
        let part = kvs.partition_bytes;
        let before = kvs.log_heads[0];
        let sets_before = kvs.stats().sets;
        // Run until we see a SET on core 0.
        for i in 0..100u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
            if kvs.stats().sets > sets_before {
                break;
            }
        }
        let advanced = (kvs.log_heads[0] + part - before) % part;
        assert_eq!(advanced % slot, 0);
        assert!(kvs.log_heads[0] < part);
    }

    #[test]
    fn set_relocates_item_to_core_partition() {
        let (mut kvs, _mem, _) = setup();
        let old = kvs.item_addr(5);
        let new = kvs.append(1, 5);
        assert_ne!(old, new);
        assert_eq!(kvs.item_addr(5), new);
        let part_base = kvs.log_base.0 + kvs.partition_bytes;
        assert!(new.0 >= part_base && new.0 < part_base + kvs.partition_bytes);
    }

    #[test]
    fn get_reads_the_address_a_set_appended_until_the_next_setup() {
        // One item, so every request names key 1; half GETs.
        let cfg = KvsConfig {
            items: 1,
            get_ratio: 0.5,
            ..KvsConfig::small_for_tests()
        };
        let mut mem = MemorySystem::new(MachineConfig::tiny_for_tests());
        let mut kvs = MicaKvs::new(cfg);
        let mut rng = SimRng::seeded(3);
        // GETs that read a SET's address, and GETs in a round with no SET
        // yet after an earlier round's SET moved the key.
        let (mut moved_gets, mut forgotten_gets) = (0, 0);
        let mut ever_moved = false;
        for _ in 0..8 {
            kvs.setup(&mut mem);
            let pkt = rx_packet(&mut mem, 1024);
            let mut expected = kvs.initial_addr(1);
            let mut moved = false;
            for _ in 0..8 {
                let gets = kvs.stats().gets;
                let mut env = CoreEnv::new(1, &mut rng);
                kvs.handle_packet(&pkt, &mut env);
                if kvs.stats().gets > gets {
                    // Header, bucket, then the item.
                    let mut reads = env.ops().iter().filter_map(|op| match op {
                        Op::Read { addr, .. } => Some(*addr),
                        _ => None,
                    });
                    assert_eq!(reads.nth(2), Some(expected), "moved: {moved}");
                    if moved {
                        moved_gets += 1;
                    } else if ever_moved {
                        forgotten_gets += 1;
                    }
                } else {
                    // The value goes to the log head, then the bucket.
                    let appended = env.ops().iter().find_map(|op| match op {
                        Op::Write { addr, .. } => Some(*addr),
                        _ => None,
                    });
                    let appended = appended.expect("a SET writes");
                    assert_ne!(appended, expected, "a SET appends at core 1's log head");
                    (expected, moved, ever_moved) = (appended, true, true);
                }
            }
        }
        assert!(
            moved_gets > 0 && forgotten_gets > 0,
            "{moved_gets} {forgotten_gets}"
        );
    }

    #[test]
    fn bucket_addresses_stay_in_index_region() {
        let (kvs, _mem, _) = setup();
        for key in 1..=kvs.config().items {
            let b = kvs.bucket_addr(key);
            assert!(b.0 >= kvs.buckets_base.0);
            assert!(b.0 < kvs.buckets_base.0 + kvs.config().buckets * BLOCK_BYTES);
            assert_eq!((b.0 - kvs.buckets_base.0) % BLOCK_BYTES, 0);
        }
    }

    #[test]
    fn hot_keys_are_cache_friendly() {
        // With zipf 0.99, repeated requests touch few distinct buckets, so
        // service should mostly hit caches: the second half of a run must
        // not fetch dramatically more than the first from DRAM.
        let (mut kvs, mut mem, mut rng) = setup();
        let pkt = rx_packet(&mut mem, 1024);
        for i in 0..200u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
        }
        let mid = mem.stats().dram_reads.total();
        for i in 200..400u64 {
            drive(&mut kvs, &pkt, &mut mem, &mut rng, i * 10_000);
        }
        let second_half = mem.stats().dram_reads.total() - mid;
        assert!(second_half <= mid * 2, "no pathological growth");
    }

    #[test]
    #[should_panic(expected = "log too small")]
    fn rejects_undersized_log() {
        let cfg = KvsConfig {
            log_bytes: 64,
            ..KvsConfig::small_for_tests()
        };
        MicaKvs::new(cfg);
    }
}
