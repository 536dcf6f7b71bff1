//! Integration tests asserting the paper's headline claims end-to-end, at a
//! reduced but paper-shaped scale (full 24-core machine, shortened runs).
//!
//! These are the "does the reproduction reproduce" tests: each corresponds
//! to a claim in the paper's text and exercises the full stack — traffic
//! generation, NIC injection, cache hierarchy, DRAM, Sweeper, and the
//! measurement pipeline.

use sweeper::bench::scenario_experiment;
use sweeper::core::experiment::Experiment;
use sweeper::core::profile::RunProfile;
use sweeper::core::scenario::Scenario;
use sweeper::core::server::{RunOptions, RunReport, SweeperMode};
use sweeper::sim::hierarchy::InjectionPolicy;
use sweeper::sim::stats::TrafficClass;

/// The 1 KB-item KVS point with 512 RX buffers per core under `policy`.
fn kvs_point(policy: InjectionPolicy, ways: u32, sweeper: SweeperMode) -> Experiment {
    let s = Scenario {
        policy,
        ddio_ways: ways,
        sweeper,
        buffers: 512,
        ..Scenario::default()
    };
    let cfg = s.to_config().run_options(RunOptions {
        // The warmup is a physics floor — ≥1.2 wraps of every RX ring
        // (24 cores × 512 buffers ⇒ ~14.8 k requests) so steady-state
        // buffer churn is in effect — and cannot shrink with the
        // profile. 512-deep rings (13 MB aggregate, still ≫ the 6 MB
        // 2-way DDIO allocation) reproduce every claim of the 1024-deep
        // paper scenario at half the warmup cost. The measurement
        // window scales with the profile: Smoke sizing keeps
        // `cargo test -q` quick while 5 000 measured requests still
        // give ~85 000 leak events for the ratio assertions below.
        warmup_requests: 15_000,
        measure_requests: RunProfile::Smoke.scale(15_000, 5_000),
        max_cycles: 120_000_000_000,
        min_warmup_cycles: 0,
        min_measure_cycles: 0,
    });
    scenario_experiment(cfg, &s)
}

fn at_moderate_load(policy: InjectionPolicy, ways: u32, sweeper: SweeperMode) -> RunReport {
    kvs_point(policy, ways, sweeper).run_at_rate(18.0e6)
}

#[test]
fn consumed_evictions_dominate_premature_at_stable_load() {
    // §IV-A: "virtually all network data leaks are attributed to consumed
    // buffer evictions" at stable operating points.
    let report = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Disabled);
    let counts = report.class_counts();
    assert!(counts[TrafficClass::RxEvct] > 0, "leaks must exist at 2-way DDIO");
    assert!(
        counts[TrafficClass::CpuRxRd] * 10 < counts[TrafficClass::RxEvct],
        "premature ({}) must be negligible vs consumed ({})",
        counts[TrafficClass::CpuRxRd],
        counts[TrafficClass::RxEvct]
    );
}

#[test]
fn sweeper_eliminates_consumed_buffer_evictions() {
    // §VI-A: "Sweeper completely eliminates writebacks of consumed RX
    // buffers" — any residual RX eviction must be premature (== CPU RX Rd).
    let report = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Enabled);
    let counts = report.class_counts();
    assert!(
        counts[TrafficClass::RxEvct] <= counts[TrafficClass::CpuRxRd] + 64,
        "residual RX evictions ({}) must match premature reads ({})",
        counts[TrafficClass::RxEvct],
        counts[TrafficClass::CpuRxRd]
    );
    // And the savings are real: one full packet per request.
    let saved = report.mem.sweep_saved_writebacks as f64 / report.completed as f64;
    assert!(saved > 15.0, "expected ~17 saved writebacks/request, got {saved:.1}");
}

#[test]
fn sweeper_matches_ideal_ddio_access_count() {
    // §VI-A: Sweeper "virtually matches ideal-DDIO's memory access count
    // per KVS request".
    let swept = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Enabled);
    let ideal = at_moderate_load(InjectionPolicy::Ideal, 2, SweeperMode::Disabled);
    // Network-attributed traffic matches ideal's (zero); the residual gap is
    // application data squeezed by the cache capacity network buffers still
    // occupy under real DDIO — the same gap the paper reports (§VI-A:
    // "within 2-18% of ideal-DDIO").
    let net_per_req: f64 = [
        TrafficClass::NicRxWr,
        TrafficClass::NicTxRd,
        TrafficClass::CpuRxRd,
        TrafficClass::RxEvct,
    ]
    .iter()
    .map(|&c| swept.class_counts()[c] as f64 / swept.completed as f64)
    .sum();
    assert!(net_per_req < 1.0, "network traffic {net_per_req:.2}/req should vanish");
    let ratio = swept.total_accesses_per_request() / ideal.total_accesses_per_request();
    assert!(
        ratio < 1.6,
        "sweeper {:.1} acc/req vs ideal {:.1} (ratio {ratio:.2})",
        swept.total_accesses_per_request(),
        ideal.total_accesses_per_request()
    );
}

#[test]
fn sweeper_reduces_memory_bandwidth_at_iso_load() {
    // Abstract: "Sweeper conserves up to 1.3x of memory bandwidth".
    let base = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Disabled);
    let swept = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Enabled);
    assert!(
        base.memory_bandwidth_gbps() > swept.memory_bandwidth_gbps() * 1.3,
        "baseline {:.1} GB/s vs sweeper {:.1} GB/s",
        base.memory_bandwidth_gbps(),
        swept.memory_bandwidth_gbps()
    );
}

#[test]
fn sweeper_reduces_dram_latency_at_iso_throughput() {
    // §VI-B / Figure 6 (right): iso-throughput, Sweeper cuts average DRAM
    // access latency substantially.
    let base = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Disabled);
    let swept = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Enabled);
    assert!(
        (base.throughput_mrps() - swept.throughput_mrps()).abs() < 2.0,
        "iso-throughput comparison requires matched load"
    );
    assert!(
        swept.dram_latency.mean() < base.dram_latency.mean() * 0.8,
        "sweeper DRAM mean {:.0} vs baseline {:.0}",
        swept.dram_latency.mean(),
        base.dram_latency.mean()
    );
}

#[test]
fn ddio_removes_direct_nic_memory_traffic() {
    // §IV-A / Figure 1c: "DDIO completely eliminates memory traffic directly
    // generated by the NIC".
    let dma = at_moderate_load(InjectionPolicy::Dma, 2, SweeperMode::Disabled);
    let ddio = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Disabled);
    let dma_counts = dma.class_counts();
    let ddio_counts = ddio.class_counts();
    assert!(dma_counts[TrafficClass::NicRxWr] > 0);
    assert_eq!(ddio_counts[TrafficClass::NicRxWr], 0);
    assert_eq!(ddio_counts[TrafficClass::NicTxRd], 0);
    // DMA also forces the CPU to fetch every packet from memory.
    assert!(
        dma_counts[TrafficClass::CpuRxRd] as f64 / dma.completed as f64 > 10.0,
        "DMA mode must fetch packets from DRAM"
    );
}

#[test]
fn ideal_ddio_has_zero_network_memory_traffic() {
    // §III: ideal-DDIO has "zero memory traffic due to network data
    // movements".
    let report = at_moderate_load(InjectionPolicy::Ideal, 2, SweeperMode::Disabled);
    let counts = report.class_counts();
    for class in [
        TrafficClass::NicRxWr,
        TrafficClass::NicTxRd,
        TrafficClass::CpuRxRd,
        TrafficClass::RxEvct,
        TrafficClass::TxEvct,
        TrafficClass::CpuTxRdWr,
    ] {
        assert_eq!(counts[class], 0, "{class} must be zero under ideal-DDIO");
    }
}

#[test]
fn more_ddio_ways_reduce_leaks() {
    // §VI-A: "increasing DDIO ways helps reduce such churn".
    let narrow = at_moderate_load(InjectionPolicy::Ddio, 2, SweeperMode::Disabled);
    let wide = at_moderate_load(InjectionPolicy::Ddio, 12, SweeperMode::Disabled);
    assert!(
        wide.class_counts()[TrafficClass::RxEvct] < narrow.class_counts()[TrafficClass::RxEvct],
        "12-way RX evictions must be below 2-way"
    );
}

#[test]
fn dirty_line_conservation_holds_end_to_end() {
    // Modelling invariant: no dirty data is ever dropped outside legitimate
    // NIC full-block overwrites and sweeps.
    for sweeper in [SweeperMode::Disabled, SweeperMode::Enabled] {
        let report = at_moderate_load(InjectionPolicy::Ddio, 2, sweeper);
        assert_eq!(
            report.mem.dirty_dropped_unexpectedly, 0,
            "dirty data lost in {sweeper} run"
        );
    }
}
