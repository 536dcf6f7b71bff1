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

use super::{emit_grid, Figure};
use crate::{figure_experiment, FigContext};

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

    fn render(&self, ctx: &FigContext, outcomes: &[PointOutcome]) {
        let columns = BUFFERS.map(|b| (format!("rx={b}"), b.to_string()));
        let tables = [
            ("a", "KVS peak throughput (Mrps), 1KB items"),
            ("b", "memory bandwidth at peak (GB/s)"),
            ("c", "memory accesses per KVS request"),
        ]
        .map(|(panel, what)| (format!("fig1{panel}"), format!("Figure 1{panel} — {what}")));
        emit_grid(
            ctx,
            outcomes,
            &configs(),
            &columns,
            Some("rx/core"),
            &tables,
        );
    }
}
