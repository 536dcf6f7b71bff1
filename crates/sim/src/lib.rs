//! Microarchitectural simulation substrate for the Sweeper reproduction.
//!
//! This crate models the memory system of a many-core server CPU at
//! cache-block granularity, following the methodology of
//! *"Patching up Network Data Leaks with Sweeper"* (MICRO 2022):
//!
//! * a physical [address space](addr) with region classification
//!   (RX rings, TX rings, application data),
//! * [set-associative caches](cache) with way-partitioning support,
//! * a three-level [cache hierarchy](hierarchy) — private L1/L2 per core and a
//!   shared non-inclusive victim LLC — with DDIO-style direct cache access for
//!   NIC traffic and `sweep` (invalidate-without-writeback) support,
//! * a sparse [coherence directory](coherence),
//! * a [DDR4 memory model](dram) with channel/rank/bank timing and queuing,
//! * [statistics](stats) that attribute every DRAM transfer to the traffic
//!   classes used in the paper's figures,
//! * a [structured telemetry layer](telemetry) — a `Value`/`Record` tree
//!   with JSON and CSV writers that every machine-readable artifact in the
//!   workspace serializes through,
//! * [request-level causal spans](span) — typed per-stage spans tagged with
//!   a trace id, a hierarchical cycle-attribution profile, and the
//!   Perfetto-compatible export built on them,
//! * a [correctness harness](check) — a shadow-memory oracle plus on-demand
//!   hierarchy invariant walks, off by default at one branch per hook,
//! * the overwrite-oldest [`ring`] that the memory trace, the span
//!   ring, and the server's sampled time series keep their window in.
//!
//! # Example
//!
//! ```
//! use sweeper_sim::hierarchy::{MachineConfig, MemorySystem};
//! use sweeper_sim::addr::{Addr, RegionKind};
//!
//! let cfg = MachineConfig::paper_default();
//! let mut mem = MemorySystem::new(cfg);
//! let rx = mem.address_map_mut().alloc(4096, RegionKind::Rx { core: 0 });
//!
//! // The NIC delivers a packet into the LLC (DDIO), then core 0 reads it.
//! mem.nic_write(rx, 1024, 0);
//! let outcome = mem.cpu_read(0, rx, 1024, 100);
//! assert!(outcome.latency > 0);
//! ```
//!
//! Cycle counts use the CPU clock (3.2 GHz in the paper's configuration).

pub mod addr;
pub mod cache;
pub mod check;
pub mod coherence;
pub mod dram;
pub mod engine;
pub mod hierarchy;
pub mod ring;
pub mod span;
pub mod stats;
mod table;
pub mod telemetry;
pub mod trace;

/// Simulation time, measured in CPU cycles.
///
/// The paper's simulated CPU runs at 3.2 GHz, so one cycle is 0.3125 ns; the
/// helpers in [`engine`] convert between cycles and wall-clock units.
pub type Cycle = u64;

/// The cache block (line) size in bytes, fixed at 64 B as in Table I.
pub const BLOCK_BYTES: u64 = 64;

/// Hashes a `u64` key (a block number, an item key) with one Fibonacci
/// multiply, for `HashMap`s on the simulator's hot paths: keys are already
/// uniform-ish integers, and a fixed function keeps the map deterministic
/// and cheaper than the default SipHash.
#[derive(Debug, Default)]
pub struct KeyHasher(u64);

impl std::hash::Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (self.0 ^ key).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}
