//! Table I — *System parameters for simulation on zSim* (Appendix A).
//!
//! Tabulates the simulated machine's parameters and asserts that the
//! `paper_default` preset matches the paper exactly.

use sweeper_sim::hierarchy::MachineConfig;

use crate::Table;

/// The Table I preset, validated against the paper.
///
/// # Panics
///
/// Panics if `MachineConfig::paper_default` differs from Table I.
pub fn table() -> Table {
    let cfg = MachineConfig::paper_default();

    // Hard assertions: the preset *is* Table I.
    assert_eq!(cfg.cores, 24);
    assert_eq!(cfg.l1.size_bytes, 48 * 1024);
    assert_eq!(cfg.l1.ways, 12);
    assert_eq!(cfg.l1.latency, 4);
    assert_eq!(cfg.l2.size_bytes, 1280 * 1024);
    assert_eq!(cfg.l2.ways, 20);
    assert_eq!(cfg.l2.latency, 14);
    assert_eq!(cfg.llc.size_bytes, 36 * 1024 * 1024);
    assert_eq!(cfg.llc.ways, 12);
    assert_eq!(cfg.llc.latency, 35);
    assert_eq!(cfg.noc_latency, 8);
    assert_eq!(cfg.dram.channels, 4);
    assert_eq!(cfg.dram.ranks_per_channel, 4);
    assert_eq!(cfg.dram.banks_per_rank, 8);
    assert_eq!(sweeper_sim::engine::CLOCK_HZ, 3_200_000_000);

    let mut t = Table::new(
        "Table I — system parameters (simulated server)",
        &["component", "parameters"],
    );
    t.row(vec![
        "CPU".into(),
        format!("{} x86-64 cores (Ice-Lake-like), 3.2 GHz", cfg.cores),
    ]);
    t.row(vec![
        "L1 caches".into(),
        format!(
            "{} KB {}-way, 64 B blocks, {}-cycle access",
            cfg.l1.size_bytes / 1024,
            cfg.l1.ways,
            cfg.l1.latency
        ),
    ]);
    t.row(vec![
        "L2 caches".into(),
        format!(
            "{:.2} MB, {}-way, {}-cycle access",
            cfg.l2.size_bytes as f64 / (1024.0 * 1024.0),
            cfg.l2.ways,
            cfg.l2.latency
        ),
    ]);
    t.row(vec![
        "LLC".into(),
        format!(
            "shared non-inclusive victim cache, {} MB, {}-way, {}-cycle access",
            cfg.llc.size_bytes / (1024 * 1024),
            cfg.llc.ways,
            cfg.llc.latency
        ),
    ]);
    t.row(vec![
        "NoC".into(),
        format!("crossbar, {}-cycle latency", cfg.noc_latency),
    ]);
    t.row(vec![
        "Memory".into(),
        format!(
            "DDR4-3200, {} channels ({} configurable 3..8), {} ranks/channel, {} banks/rank",
            cfg.dram.channels,
            cfg.dram.channels,
            cfg.dram.ranks_per_channel,
            cfg.dram.banks_per_rank
        ),
    ]);
    t.row(vec![
        "DDIO".into(),
        format!("{} LLC ways (default), configurable 1..12", cfg.ddio_ways),
    ]);
    t
}
