//! Figure 7 — *Sweeper's effect on premature buffer evictions* (§VI-C).
//!
//! Revisits §IV-B's deep-queue L3fwd scenarios (D ∈ {250, 450}) with
//! Sweeper. The signature check: with Sweeper enabled, the remaining RX
//! evictions exactly match the CPU's RX read misses — every residual leak
//! is a premature eviction, consumed-buffer evictions are gone.

use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;
use sweeper_sim::stats::TrafficClass;

use super::{fig2, Figure};
use crate::{f1, figure_experiment, format_breakdown, FigContext, Table};

/// Queued depths revisited from §IV-B.
pub const DEPTHS: [usize; 2] = [250, 450];

/// The §VI-C configurations.
pub fn configs() -> Vec<Scenario> {
    let mut out = Vec::new();
    for ways in [2, 6, 12] {
        out.push(Scenario::ddio(ways));
        out.push(Scenario::ddio_sweeper(ways));
    }
    out.push(Scenario::ideal());
    out
}

/// The §VI-C premature-evictions check.
pub struct Fig7;

impl Figure for Fig7 {
    fn name(&self) -> &'static str {
        "fig7"
    }

    fn description(&self) -> &'static str {
        "Sweeper vs premature buffer evictions on deep-queue L3fwd (§VI-C)"
    }

    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        let mut out = Vec::new();
        for system in configs() {
            let s = fig2::l3fwd(system, seed);
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

    fn render(&self, ctx: &FigContext, outcomes: &[PointOutcome]) {
        let mut fig_a = Table::new(
            "Figure 7a — L3fwd throughput (Mrps) with deep queues",
            &["config", "D=250", "D=450"],
        );
        let mut fig_b = Table::new(
            "Figure 7b — memory accesses per packet processed",
            &["D", "config", "RX Evct", "CPU RX Rd", "breakdown"],
        );

        let mut rows = outcomes.chunks_exact(DEPTHS.len());
        for point in configs() {
            let row = rows.next().expect("one outcome row per config");
            let mut tputs = vec![point.label()];
            for (depth, outcome) in DEPTHS.iter().zip(row) {
                tputs.push(f1(outcome.throughput_mrps()));
                let per_req = outcome.report.accesses_per_request();
                let rx_evct = per_req[TrafficClass::RxEvct.index()].1;
                let cpu_rx = per_req[TrafficClass::CpuRxRd.index()].1;
                fig_b.row(vec![
                    depth.to_string(),
                    point.label(),
                    f1(rx_evct),
                    f1(cpu_rx),
                    format_breakdown(&outcome.report),
                ]);
            }
            fig_a.row(tputs);
        }

        fig_a.emit(ctx, "fig7a");
        fig_b.emit(ctx, "fig7b");
        println!(
            "Check (§VI-C): with Sweeper, 'RX Evct' ≈ 'CPU RX Rd' — all residual\n\
             leaks are premature evictions; consumed-buffer evictions are gone."
        );
    }
}
