//! End-to-end simulator-throughput benchmark (`BENCH_sim.json`), run by
//! `sweeper perf`.
//!
//! Measures how fast the *host* simulates the paper's Figure-1 KVS scenario
//! (DDIO 2 ways, 1 KB items, 1024 RX buffers/core, 24 cores, 15 Mrps — a
//! stable operating point below the configuration's peak), reporting
//! **simulated block accesses per wall-clock second**. This is the
//! simulator's own speed, the quantity that decides how much of the paper's
//! evaluation fits in a CI budget; the perf-trajectory artifact
//! `BENCH_sim.json` tracks it across changes.
//!
//! ```text
//! sweeper perf [--profile fast|smoke] [--json PATH]   # measure, write JSON
//! sweeper perf --check PATH [--max-regress PCT]       # CI gate against the
//!                                                     # committed baseline
//! ```
//!
//! `--check` re-measures under the profile recorded in `PATH` and fails if
//! accesses/sec regressed by more than `--max-regress` percent (default
//! 20). Simulation *outputs* are deterministic; only wall time varies
//! between hosts, hence the generous tolerance.

use std::time::Instant;

use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::{Scenario, ScenarioWorkload};
use sweeper_core::server::RunOptions;
use sweeper_core::telemetry::Record;
use sweeper_workloads::kvs::HEADER_BYTES;

use crate::scenario_experiment;

/// The benchmark's operating point. 15 Mrps is below the DDIO-2-way
/// rx=1024 peak (~26 Mrps in `results/fig1a.csv`), so queues stay bounded
/// and run length is stable.
pub fn scenario() -> Scenario {
    Scenario {
        workload: ScenarioWorkload::Kvs,
        ddio_ways: 2,
        buffers: 1024,
        packet: 1024 + HEADER_BYTES,
        channels: 4,
        rate_mrps: 15.0,
        ..Scenario::default()
    }
}

/// Measured requests per profile. Warmup is folded into the measured window
/// (warmup 0) so every simulated access is counted against wall time.
fn requests(profile: RunProfile) -> u64 {
    match profile {
        RunProfile::Full | RunProfile::Fast => 24_000,
        RunProfile::Smoke => 4_000,
    }
}

/// One measured point of the perf trajectory.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Profile the window was sized by.
    pub profile: RunProfile,
    /// Host wall time of the run.
    pub wall_secs: f64,
    /// Simulated block accesses.
    pub accesses: u64,
    /// Completed requests.
    pub completed: u64,
    /// `accesses / wall_secs`.
    pub accesses_per_sec: f64,
}

impl Measurement {
    /// The perf-trajectory record, written through the shared telemetry
    /// JSON writer. Field names are the `BENCH_sim.json` contract
    /// [`baseline`] reads back; wall time and rate are rounded to the
    /// baseline's historical precision (ms, whole accesses/s) to keep diffs
    /// quiet.
    pub fn to_record(&self) -> Record {
        Record::new()
            .with("bench", "fig1_kvs_e2e")
            .with("scenario", "KVS ddio2 rx=1024 1KB items, 24 cores, 15 Mrps")
            .with("metric", "simulated block accesses per host second")
            .with("profile", self.profile.to_string())
            .with("requests", self.completed)
            .with("simulated_block_accesses", self.accesses)
            .with("wall_seconds", (self.wall_secs * 1000.0).round() / 1000.0)
            .with("accesses_per_sec", self.accesses_per_sec.round())
    }
}

/// Runs the benchmark scenario once under `profile` and times it.
///
/// # Panics
///
/// Panics if the run times out before completing its request quota, which
/// the fixed, stable operating point never does.
pub fn measure(profile: RunProfile) -> Measurement {
    let s = scenario();
    let cfg = s.to_config().run_options(RunOptions {
        warmup_requests: 0,
        measure_requests: requests(profile),
        max_cycles: 120_000_000_000,
        min_warmup_cycles: 0,
        min_measure_cycles: 0,
    });
    let exp = scenario_experiment(cfg, &s, false);
    let t = Instant::now();
    let report = exp.run_at_rate(s.rate_mrps * 1e6);
    let wall_secs = t.elapsed().as_secs_f64();
    assert!(!report.timed_out, "perf scenario must complete its quota");
    let accesses = report.mem.block_accesses;
    Measurement {
        profile,
        wall_secs,
        accesses,
        completed: report.completed,
        accesses_per_sec: accesses as f64 / wall_secs,
    }
}

/// The accesses/sec and profile of a `BENCH_sim.json` baseline.
///
/// # Errors
///
/// Names the missing field when either is absent or malformed.
pub fn baseline(text: &str) -> Result<(f64, RunProfile), String> {
    let rate = json_field(text, "accesses_per_sec")
        .and_then(|v| v.parse().ok())
        .ok_or("missing accesses_per_sec")?;
    let profile = json_field(text, "profile")
        .and_then(|v| v.parse().ok())
        .ok_or("missing profile")?;
    Ok((rate, profile))
}

/// Minimal field extraction — the file is machine-written by
/// [`Measurement::to_record`].
fn json_field(text: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = &text[text.find(&pat)? + pat.len()..];
    let rest = rest.trim_start();
    let end = rest.find([',', '\n', '}'])?;
    Some(rest[..end].trim().trim_matches('"').to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_through_baseline() {
        let m = Measurement {
            profile: RunProfile::Fast,
            wall_secs: 1.5,
            accesses: 3_000_000,
            completed: 24_000,
            accesses_per_sec: 2_000_000.0,
        };
        let text = m.to_record().to_json_pretty();
        assert_eq!(baseline(&text), Ok((2_000_000.0, RunProfile::Fast)));
        assert!(baseline("{}").is_err());
    }
}
