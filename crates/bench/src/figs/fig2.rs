//! Figure 2 — *L3 forwarder NF demonstrating performance effect of network
//! data leaks* (§IV-B).
//!
//! L3fwd with 1 KB packets and 2048 RX buffers per core, operated with the
//! keep-queued load generator so each core's RX queue always holds at least
//! *D* unconsumed packets (batching-of-degree-D emulation); D ∈
//! {50, 250, 450}; DDIO {2, 6, 12} ways and Ideal-DDIO.

use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::{Scenario, ScenarioWorkload};

use super::Figure;
use crate::{f1, figure_experiment, format_breakdown, Table};

/// Queued-packets depths swept on the x-axis.
pub const DEPTHS: [usize; 3] = [50, 250, 450];

/// The §IV-B configurations.
pub fn configs() -> Vec<Scenario> {
    vec![
        Scenario::ddio(2),
        Scenario::ddio(6),
        Scenario::ddio(12),
        Scenario::ideal(),
    ]
}

/// The §IV-B L3fwd point of `system`: 1 KB packets, 2048 RX buffers per
/// core (shared with Figure 7).
pub fn l3fwd(system: Scenario, seed: u64) -> Scenario {
    Scenario {
        workload: ScenarioWorkload::L3fwd,
        buffers: 2048,
        packet: 1024,
        seed,
        ..system
    }
}

/// The §IV-B keep-queued L3fwd sweep.
pub struct Fig2;

impl Figure for Fig2 {
    fn name(&self) -> &'static str {
        "fig2"
    }

    fn description(&self) -> &'static str {
        "L3fwd under queued packets: throughput, bandwidth, breakdown (§IV-B)"
    }

    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        let mut out = Vec::new();
        for system in configs() {
            let s = l3fwd(system, seed);
            for depth in DEPTHS {
                out.push(ExperimentPoint::keep_queued(
                    format!("{} D={depth}", s.label()),
                    figure_experiment(profile, &s),
                    depth,
                ));
            }
        }
        out
    }

    fn render(&self, _profile: RunProfile, outcomes: &[PointOutcome]) {
        let mut fig_a = Table::new(
            "Figure 2a — L3fwd throughput (Mrps) under queued packets D",
            &["config", "D=50", "D=250", "D=450"],
        );
        let mut fig_b = Table::new(
            "Figure 2b — memory bandwidth (GB/s)",
            &["config", "D=50", "D=250", "D=450"],
        );
        let mut fig_c = Table::new(
            "Figure 2c — memory accesses per packet processed",
            &["D", "config", "breakdown"],
        );

        let mut rows = outcomes.chunks_exact(DEPTHS.len());
        for point in configs() {
            let row = rows.next().expect("one outcome row per config");
            let mut tputs = vec![point.label()];
            let mut bws = vec![point.label()];
            for (depth, outcome) in DEPTHS.iter().zip(row) {
                tputs.push(f1(outcome.throughput_mrps()));
                bws.push(f1(outcome.report.memory_bandwidth_gbps()));
                fig_c.row(vec![
                    depth.to_string(),
                    point.label(),
                    format_breakdown(&outcome.report),
                ]);
            }
            fig_a.row(tputs);
            fig_b.row(bws);
        }

        fig_a.emit("fig2a");
        fig_b.emit("fig2b");
        fig_c.emit("fig2c");
    }
}
