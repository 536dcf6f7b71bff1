//! The paper's workloads, reimplemented as memory-reference models.
//!
//! Appendix A fixes the application set used throughout the evaluation:
//!
//! * [`kvs`] — a MICA-style key-value store ported to the Scale-Out NUMA
//!   transport (from its RDMA-based HERD version): 1 M buckets, 2.4 M
//!   key-value pairs, a 256 MB circular log, a write-heavy 5/95 GET/SET mix,
//!   and zipf-0.99 key popularity,
//! * [`l3fwd`] — an L3 forwarder network function adapted from its stock
//!   DPDK version, with a forwarding table sized to be L1- or L2-resident,
//! * [`xmem`] — the X-Mem memory-characterization tool standing in for a
//!   collocated memory-intensive tenant (§VI-E),
//! * [`dist`] — the zipf sampler behind the KVS key popularity,
//! * [`spiky`] — the §VI-F microbenchmark decorator that adds random
//!   [1, 100] µs processing delays to induce queue-buildup spikes.
//!
//! Each workload issues the same *memory reference pattern* per request as
//! the original application (buffer reads, index probes, log appends, table
//! lookups), which is what the paper's memory-system phenomena depend on.

pub mod dist;
pub mod kvs;
pub mod l3fwd;
pub mod spiky;
pub mod xmem;
