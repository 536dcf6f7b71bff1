//! Figure 8 — *Effect of network data leaks and Sweeper on performance as a
//! function of memory bandwidth availability* (§VI-D).
//!
//! MICA KVS, three workload scenarios (512 B items / 512 buffers, 1 KB /
//! 512, 1 KB / 2048), provisioned with 3, 4, and 8 memory channels; DDIO
//! {2, 6, 12} ways ± Sweeper plus Ideal-DDIO.

use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;
use sweeper_workloads::kvs::HEADER_BYTES;

use super::{emit_grid, Figure};
use crate::{figure_experiment, FigContext};

/// The three workload scenarios `(item_bytes, rx_buffers)`.
pub const SCENARIOS: [(u64, usize); 3] = [(512, 512), (1024, 512), (1024, 2048)];

/// Channel counts swept (Table I: 3 to 8).
pub const CHANNELS: [usize; 3] = [3, 4, 8];

/// The §VI-D configurations.
pub fn configs() -> Vec<Scenario> {
    let mut out = Vec::new();
    for ways in [2, 6, 12] {
        out.push(Scenario::ddio(ways));
        out.push(Scenario::ddio_sweeper(ways));
    }
    out.push(Scenario::ideal());
    out
}

/// The §VI-D memory-bandwidth sensitivity sweep.
pub struct Fig8;

impl Figure for Fig8 {
    fn name(&self) -> &'static str {
        "fig8"
    }

    fn description(&self) -> &'static str {
        "Leaks and Sweeper vs provisioned memory bandwidth (§VI-D)"
    }

    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        let mut out = Vec::new();
        for (item, buffers) in SCENARIOS {
            for system in configs() {
                for channels in CHANNELS {
                    let s = Scenario {
                        buffers,
                        packet: item + HEADER_BYTES,
                        channels,
                        seed,
                        ..system
                    };
                    out.push(ExperimentPoint::peak(
                        format!("{item}B/rx={buffers} {} ch={channels}", s.label()),
                        figure_experiment(profile, &s),
                    ));
                }
            }
        }
        out
    }

    fn render(&self, ctx: &FigContext, outcomes: &[PointOutcome]) {
        let systems = configs();
        let columns = CHANNELS.map(|c| (format!("{c}ch"), c.to_string()));
        let per_scenario = outcomes.chunks_exact(systems.len() * CHANNELS.len());
        for ((item, bufs), outcomes) in SCENARIOS.into_iter().zip(per_scenario) {
            let tables = [
                ("a", "KVS peak throughput (Mrps)"),
                ("b", "memory bandwidth at peak (GB/s)"),
            ]
            .map(|(panel, what)| {
                let title = format!("Figure 8{panel} — {what}, {item}B packets, rx={bufs}");
                (format!("fig8{panel}_{item}_{bufs}"), title)
            });
            emit_grid(ctx, outcomes, &systems, &columns, None, &tables);
        }
    }
}
