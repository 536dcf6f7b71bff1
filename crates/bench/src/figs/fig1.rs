//! Figure 1 — *KVS application demonstrating performance effect of network
//! data leaks* (§IV-A).
//!
//! MICA KVS, 1 KB items, 24 cores; RX buffers per core ∈ {512, 1024, 2048};
//! baselines DMA, DDIO {2, 4, 6} ways, and Ideal-DDIO. Reports:
//!
//! * (a) peak application throughput (Mrps),
//! * (b) memory bandwidth utilization at each configuration's peak (GB/s),
//! * (c) the per-request memory-access breakdown.

use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;
use sweeper_workloads::kvs::HEADER_BYTES;

use super::Figure;
use crate::{f1, figure_experiment, format_breakdown, Table};

/// RX ring depths swept on the x-axis.
pub const BUFFERS: [usize; 3] = [512, 1024, 2048];

/// The baseline configurations of §III.
pub fn configs() -> Vec<Scenario> {
    vec![
        Scenario::dma(),
        Scenario::ddio(2),
        Scenario::ddio(4),
        Scenario::ddio(6),
        Scenario::ideal(),
    ]
}

/// The §IV-A KVS baseline sweep.
pub struct Fig1;

impl Figure for Fig1 {
    fn name(&self) -> &'static str {
        "fig1"
    }

    fn description(&self) -> &'static str {
        "KVS baselines: peak throughput, bandwidth, access breakdown (§IV-A)"
    }

    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        let mut out = Vec::new();
        for system in configs() {
            for buffers in BUFFERS {
                let s = Scenario {
                    buffers,
                    packet: 1024 + HEADER_BYTES,
                    seed,
                    ..system
                };
                out.push(ExperimentPoint::peak(
                    format!("{} rx={buffers}", s.label()),
                    figure_experiment(profile, &s),
                ));
            }
        }
        out
    }

    fn render(&self, _profile: RunProfile, outcomes: &[PointOutcome]) {
        let mut fig_a = Table::new(
            "Figure 1a — KVS peak throughput (Mrps), 1KB items",
            &["config", "rx=512", "rx=1024", "rx=2048"],
        );
        let mut fig_b = Table::new(
            "Figure 1b — memory bandwidth at peak (GB/s)",
            &["config", "rx=512", "rx=1024", "rx=2048"],
        );
        let mut fig_c = Table::new(
            "Figure 1c — memory accesses per KVS request",
            &["rx/core", "config", "breakdown"],
        );

        let mut rows = outcomes.chunks_exact(BUFFERS.len());
        for point in configs() {
            let row = rows.next().expect("one outcome row per config");
            let mut tputs = vec![point.label()];
            let mut bws = vec![point.label()];
            for (bufs, peak) in BUFFERS.iter().zip(row) {
                tputs.push(f1(peak.throughput_mrps()));
                bws.push(f1(peak.report.memory_bandwidth_gbps()));
                fig_c.row(vec![
                    bufs.to_string(),
                    point.label(),
                    format_breakdown(&peak.report),
                ]);
            }
            fig_a.row(tputs);
            fig_b.row(bws);
        }

        fig_a.emit("fig1a");
        fig_b.emit("fig1b");
        fig_c.emit("fig1c");
    }
}
