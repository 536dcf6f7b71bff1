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

use super::Figure;
use crate::{f1, figure_experiment, format_breakdown, Table};

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

    fn render(&self, _profile: RunProfile, outcomes: &[PointOutcome]) {
        let mut rows = outcomes.chunks_exact(BUFFERS.len());
        for item in ITEM_BYTES {
            let title_a = format!("Figure 5a — KVS peak throughput (Mrps), packet size {item}B");
            let title_b =
                format!("Figure 5b — memory bandwidth at peak (GB/s), packet size {item}B");
            let title_c =
                format!("Figure 5c — memory accesses per KVS request, packet size {item}B");
            let mut fig_a = Table::new(&title_a, &["config", "rx=512", "rx=1024", "rx=2048"]);
            let mut fig_b = Table::new(&title_b, &["config", "rx=512", "rx=1024", "rx=2048"]);
            let mut fig_c = Table::new(&title_c, &["rx/core", "config", "breakdown"]);

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

            fig_a.emit(&format!("fig5a_{item}"));
            fig_b.emit(&format!("fig5b_{item}"));
            fig_c.emit(&format!("fig5c_{item}"));
        }
    }
}
