//! # Sweeper
//!
//! A full reproduction of *"Patching up Network Data Leaks with Sweeper"*
//! (Vemmou, Cho, Daglis — MICRO 2022), as a Rust workspace.
//!
//! Sweeper is a hardware extension and API that lets networked applications
//! mark *consumed* RX buffers so the cache hierarchy can invalidate their
//! dirty cache blocks **without writing them back to memory**, eliminating
//! the dominant source of "network data leaks" under DDIO and boosting peak
//! sustainable network throughput by up to ~2.6×.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`sim`] — the microarchitectural substrate (caches, DDIO, coherence,
//!   DDR4 model, statistics),
//! * [`nic`] — the Scale-Out-NUMA-style NIC model (rings, queue pairs,
//!   Poisson traffic generation, injection policies),
//! * [`core`] — the Sweeper mechanism itself (`relinquish`, `clsweep`,
//!   NIC-driven TX sweeping), the server system model, and the experiment
//!   harness,
//! * [`workloads`] — the paper's applications (MICA-style KVS, L3 forwarder
//!   NF, X-Mem) and traffic distributions,
//! * [`bench`](mod@bench) — the figure registry and the parallel harness that
//!   regenerates every table and figure of the paper.
//!
//! ## Quickstart
//!
//! ```
//! use sweeper::core::experiment::{Experiment, ExperimentConfig};
//! use sweeper::core::server::SweeperMode;
//! use sweeper::sim::hierarchy::InjectionPolicy;
//! use sweeper::workloads::kvs::{KvsConfig, MicaKvs};
//!
//! let cfg = ExperimentConfig::tiny_for_tests()
//!     .injection(InjectionPolicy::Ddio)
//!     .ddio_ways(2)
//!     .sweeper(SweeperMode::Enabled)
//!     .rx_buffers_per_core(64)
//!     .seed(7);
//! let exp = Experiment::new(cfg, || MicaKvs::new(KvsConfig::small_for_tests()));
//! let report = exp.run_at_rate(1.0e6);
//! assert!(report.completed > 0);
//! // Sweeper suppressed the consumed buffers' writebacks.
//! assert!(report.mem.sweep_saved_writebacks > 0);
//! ```
//!
//! See `examples/` for end-to-end scenarios and `crates/bench` for the
//! figure registry that `sweeper figure <name>` runs to regenerate every
//! figure of the paper.

pub use sweeper_bench as bench;
pub use sweeper_core as core;
pub use sweeper_nic as nic;
pub use sweeper_sim as sim;
pub use sweeper_workloads as workloads;
