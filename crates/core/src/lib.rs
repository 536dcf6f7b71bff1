//! The Sweeper mechanism, server system model, and experiment harness.
//!
//! This crate is the paper's primary contribution
//! (*"Patching up Network Data Leaks with Sweeper"*, MICRO 2022) plus the
//! system scaffolding needed to evaluate it:
//!
//! * [`sweep`] — the software API (`relinquish`, §V-A) and the `clsweep`
//!   instruction semantics (§V-B), layered on the simulator substrate,
//! * [`os`] — the operating-system model for the page-recycling privacy
//!   concern and its mitigations (§V-B, "Correctness and security concerns"),
//! * [`server`] — the 24-core networked server: per-core request loops over
//!   NIC RX rings, TX through Work Queue entries, optional RX-path
//!   relinquish and NIC-driven TX sweeping (§V-D),
//! * [`observe`] — the server's observers: the time-series sampler, the
//!   cycle-attribution profiler, and the tail-latency flight recorder,
//! * [`workload`] — the [`Workload`](workload::Workload) and
//!   [`BackgroundTenant`](workload::BackgroundTenant) traits the paper's
//!   applications implement,
//! * [`experiment`] — the p99-SLO rule of Appendix A and peak-throughput
//!   search,
//! * [`fleet`] — the parallel experiment runner, the one way to run a
//!   batch of points (figures, load sweeps, checked points): independent
//!   points fan out across a worker pool, each with its own seed, so
//!   results are identical for any worker count,
//! * [`profile`] — typed run-length profiles (full / fast / smoke), set
//!   by the CLI's `--profile` flag,
//! * [`loadsweep`] — full load–latency ("hockey-stick") characterizations,
//! * [`report`] — run-report rendering (stable text, typed JSON, wide
//!   CSV — one traversal feeds all three),
//! * [`telemetry`] — run manifests and schema-tagged JSON/CSV documents
//!   over the shared value layer,
//! * [`scenario`] — versionable `key = value` experiment descriptions.
//!
//! # Example
//!
//! ```
//! use sweeper_core::experiment::{Experiment, ExperimentConfig};
//! use sweeper_core::server::SweeperMode;
//! use sweeper_core::workload::EchoWorkload;
//! use sweeper_sim::hierarchy::InjectionPolicy;
//!
//! let cfg = ExperimentConfig::tiny_for_tests()
//!     .injection(InjectionPolicy::Ddio)
//!     .ddio_ways(2)
//!     .sweeper(SweeperMode::Enabled);
//! let report = Experiment::new(cfg, EchoWorkload::default).run_at_rate(2.0e6);
//! assert!(report.completed > 0);
//! ```

pub mod experiment;
pub mod fleet;
pub mod loadsweep;
pub mod observe;
pub mod os;
pub mod profile;
pub mod report;
pub mod scenario;
pub mod server;
pub mod sweep;
pub mod telemetry;
pub mod workload;
