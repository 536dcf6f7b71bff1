//! Determinism guard: golden snapshots of figure-1-scenario statistics.
//!
//! The hot-path work in `sweeper-sim` (open-addressed directory, `SharerSet`
//! bitmasks, single-pass insert, one path per coherence action) is pure
//! optimization — simulated behaviour must not move by even one counter.
//! These tests pin the full statistics fingerprint of representative runs to
//! committed golden files; any divergence (ordering, victim choice, sharer
//! iteration order …) shows up as a byte diff.
//!
//! Regenerate intentionally with `SWEEPER_BLESS=1 cargo test --test
//! golden_fig1` and inspect the diff before committing.

use std::fmt::Write as _;
use std::path::PathBuf;

use sweeper::bench::{figure_run_options, scenario_experiment};
use sweeper::core::profile::RunProfile;
use sweeper::core::report::text_report;
use sweeper::core::scenario::Scenario;
use sweeper::core::server::RunReport;

/// Every counter and distribution the simulator produces, serialized to
/// stable text. Broader than `text_report` alone: raw `MemStats` fields and
/// histogram internals are included so a drift that cancels out in derived
/// metrics still fails.
fn fingerprint(report: &RunReport) -> String {
    let mut out = text_report(report);
    let m = &report.mem;
    let _ = writeln!(out, "offered             : {}", report.offered);
    let _ = writeln!(out, "dropped             : {}", report.dropped);
    let _ = writeln!(out, "elapsed_cycles      : {}", report.elapsed_cycles);
    let _ = writeln!(out, "llc hits/misses     : {}/{}", m.llc_hits, m.llc_misses);
    let _ = writeln!(
        out,
        "ddio hits/allocs    : {}/{}",
        m.ddio_hits, m.ddio_allocs
    );
    let _ = writeln!(
        out,
        "swept/saved_wb      : {}/{}",
        m.swept_blocks, m.sweep_saved_writebacks
    );
    let _ = writeln!(
        out,
        "invalidations/c2c   : {}/{}",
        m.invalidations, m.c2c_transfers
    );
    let _ = writeln!(
        out,
        "dirty dropped nic/? : {}/{}",
        m.dirty_dropped_by_nic_overwrite, m.dirty_dropped_unexpectedly
    );
    let _ = writeln!(
        out,
        "nic evict nic/cpu   : {}/{}",
        m.nic_lines_evicted_by_nic, m.nic_lines_evicted_by_cpu
    );
    let _ = writeln!(out, "block accesses      : {}", m.block_accesses);
    let _ = writeln!(out, "reads by core       : {:?}", m.dram_reads_by_core);
    let _ = writeln!(out, "channel transfers   : {:?}", report.channel_transfers);
    for (name, h) in [
        ("request", &report.request_latency),
        ("service", &report.service_time),
        ("dram", &report.dram_latency),
    ] {
        let _ = writeln!(
            out,
            "hist {name:<7}        : n={} mean={:.6} max={} p50={} p90={} p99={} p999={}",
            h.count(),
            h.mean(),
            h.max(),
            h.percentile(0.5),
            h.percentile(0.9),
            h.percentile(0.99),
            h.percentile(0.999),
        );
    }
    out
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("SWEEPER_BLESS").is_ok_and(|v| !v.is_empty()) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e}); bless with SWEEPER_BLESS=1", name));
    assert_eq!(
        expected, actual,
        "simulation outputs diverged from golden '{name}' — the hot-path \
         optimizations must be behaviour-preserving (bless only if the change \
         is intentional)"
    );
}

/// Runs a fig1 KVS point (1 KB items, the figure's run lengths) of
/// `system` with `buffers` RX buffers per core at a fixed open-loop rate
/// below its peak.
fn fig1_point(profile: RunProfile, system: Scenario, buffers: usize) -> RunReport {
    let s = Scenario { buffers, ..system };
    let cfg = s.to_config().run_options(figure_run_options(profile, &s));
    scenario_experiment(cfg, &s).run_at_rate(15.0e6)
}

/// The acceptance-criterion scenario: fig1's DDIO-2-way KVS point at fast
/// profile.
#[test]
fn fig1_fast_ddio2_stats_match_golden() {
    let report = fig1_point(RunProfile::Fast, Scenario::ddio(2), 1024);
    check_golden("fig1_fast_ddio2", &fingerprint(&report));
}

/// Sweeper-enabled variant: exercises `sweep_block` → `drop_block` → bulk
/// invalidation, the paths most reshaped by the directory rewrite.
#[test]
fn fig1_smoke_ddio2_sweeper_stats_match_golden() {
    let report = fig1_point(RunProfile::Smoke, Scenario::ddio_sweeper(2), 512);
    check_golden("fig1_smoke_ddio2_sweeper", &fingerprint(&report));
}

/// DMA variant: covers the NIC-write invalidate path that bypasses the LLC.
#[test]
fn fig1_smoke_dma_stats_match_golden() {
    let report = fig1_point(RunProfile::Smoke, Scenario::dma(), 512);
    check_golden("fig1_smoke_dma", &fingerprint(&report));
}
