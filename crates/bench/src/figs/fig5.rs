//! Figure 5 — *Effect of DDIO ways allocation on network data leaks and KVS
//! performance* (§VI-A).
//!
//! MICA KVS with 512 B and 1 KB items, RX buffers per core ∈
//! {512, 1024, 2048}; DDIO {2, 4, 6, 12} ways, each with and without
//! Sweeper, plus Ideal-DDIO. This is the paper's headline result: Sweeper
//! eliminates consumed-buffer evictions, matching Ideal-DDIO's access count
//! and boosting throughput by up to ~2.6× over plain DDIO.

use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;
use sweeper_workloads::kvs::HEADER_BYTES;

use super::{emit_grid, Figure};
use crate::{figure_experiment, FigContext};

/// RX ring depths swept.
pub const BUFFERS: [usize; 3] = [512, 1024, 2048];

/// Item (and hence packet payload) sizes swept.
pub const ITEM_BYTES: [u64; 2] = [512, 1024];

/// The §VI-A configurations.
pub fn configs() -> Vec<Scenario> {
    let mut out = Vec::new();
    for ways in [2, 4, 6, 12] {
        out.push(Scenario::ddio(ways));
        out.push(Scenario::ddio_sweeper(ways));
    }
    out.push(Scenario::ideal());
    out
}

/// The §VI-A headline ways × Sweeper sweep.
pub struct Fig5;

impl Figure for Fig5 {
    fn name(&self) -> &'static str {
        "fig5"
    }

    fn description(&self) -> &'static str {
        "DDIO ways × Sweeper on KVS: the headline throughput result (§VI-A)"
    }

    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        let mut out = Vec::new();
        for item in ITEM_BYTES {
            for system in configs() {
                for buffers in BUFFERS {
                    let s = Scenario {
                        buffers,
                        packet: item + HEADER_BYTES,
                        seed,
                        ..system
                    };
                    out.push(ExperimentPoint::peak(
                        format!("{item}B {} rx={buffers}", s.label()),
                        figure_experiment(profile, &s),
                    ));
                }
            }
        }
        out
    }

    fn render(&self, ctx: &FigContext, outcomes: &[PointOutcome]) {
        let systems = configs();
        let columns = BUFFERS.map(|b| (format!("rx={b}"), b.to_string()));
        let per_item = outcomes.chunks_exact(systems.len() * BUFFERS.len());
        for (item, outcomes) in ITEM_BYTES.into_iter().zip(per_item) {
            let tables = [
                ("a", "KVS peak throughput (Mrps)"),
                ("b", "memory bandwidth at peak (GB/s)"),
                ("c", "memory accesses per KVS request"),
            ]
            .map(|(panel, what)| {
                let title = format!("Figure 5{panel} — {what}, packet size {item}B");
                (format!("fig5{panel}_{item}"), title)
            });
            emit_grid(ctx, outcomes, &systems, &columns, Some("rx/core"), &tables);
        }
    }
}
