//! Figure 10 — *Effect of buffer provisioning on performance of workload
//! with spiky behavior* (§VI-F).
//!
//! The shallow-buffering study: the KVS with random [1, 100] µs processing
//! delay spikes, 1 KB request packets, default 2-way DDIO.
//!
//! * **(a)** peak throughput achievable *without packet drops* as a function
//!   of the per-core buffer depth (128 … 2048), baseline vs Sweeper.
//! * **(b)** packet-drop rate as a function of the arrival rate for 128 and
//!   2048 buffers (and 2048 + Sweeper).

use sweeper_core::experiment::{Experiment, PeakCriteria};
use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;
use sweeper_core::server::SweeperMode;
use sweeper_workloads::kvs::{KvsConfig, MicaKvs, HEADER_BYTES};
use sweeper_workloads::spiky::{SpikeConfig, Spiky};

use super::Figure;
use crate::{f1, figure_run_options, FigContext, Table};

/// Buffer depths swept in Figure 10a.
pub const BUFFERS: [usize; 5] = [128, 256, 512, 1024, 2048];

/// Arrival rates swept in Figure 10b (Mrps).
pub const RATES_MRPS: [f64; 7] = [5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 50.0];

/// The `(rx_buffers, sweeper)` series of Figure 10b.
pub const B_SERIES: [(usize, SweeperMode); 3] = [
    (128, SweeperMode::Disabled),
    (2048, SweeperMode::Disabled),
    (2048, SweeperMode::Enabled),
];

/// Builds the spiky-KVS experiment: the 2-way DDIO KVS point with
/// `buffers` RX buffers per core, its store wrapped in the processing-delay
/// spikes.
pub fn spiky_experiment(
    profile: RunProfile,
    buffers: usize,
    sweeper: SweeperMode,
    seed: u64,
) -> Experiment {
    let s = Scenario {
        buffers,
        packet: 1024 + HEADER_BYTES,
        sweeper,
        seed,
        ..Scenario::ddio(2)
    };
    s.to_config()
        .run_options(figure_run_options(profile, &s))
        .experiment(|| {
            Spiky::new(
                MicaKvs::new(KvsConfig::paper_default()),
                SpikeConfig::paper_default(),
            )
        })
}

/// The §VI-F shallow-buffering study.
pub struct Fig10;

impl Figure for Fig10 {
    fn name(&self) -> &'static str {
        "fig10"
    }

    fn description(&self) -> &'static str {
        "Buffer provisioning under spiky service times: drops vs depth (§VI-F)"
    }

    /// The no-drop peak points of (a) first, then the rate sweep of (b).
    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        let mut out = Vec::new();
        for bufs in BUFFERS {
            for sweeper in [SweeperMode::Disabled, SweeperMode::Enabled] {
                out.push(ExperimentPoint::peak_with(
                    format!("a rx={bufs} {sweeper}"),
                    spiky_experiment(profile, bufs, sweeper, seed),
                    PeakCriteria::no_drops(),
                ));
            }
        }
        for rate in RATES_MRPS {
            for (bufs, sweeper) in B_SERIES {
                out.push(ExperimentPoint::at_rate(
                    format!("b rate={rate} rx={bufs} {sweeper}"),
                    spiky_experiment(profile, bufs, sweeper, seed),
                    rate * 1e6,
                ));
            }
        }
        out
    }

    fn render(&self, ctx: &FigContext, outcomes: &[PointOutcome]) {
        let split = BUFFERS.len() * 2;
        let (raw_a, raw_b) = outcomes.split_at(split);

        // ---- (a) no-drop peak vs buffer depth ----
        let mut fig_a = Table::new(
            "Figure 10a — peak throughput without packet drops (Mrps), 2-way DDIO",
            &["rx/core", "Baseline", "Sweeper"],
        );
        for (bufs, pair) in BUFFERS.iter().zip(raw_a.chunks_exact(2)) {
            fig_a.row(vec![
                bufs.to_string(),
                f1(pair[0].throughput_mrps()),
                f1(pair[1].throughput_mrps()),
            ]);
        }
        fig_a.emit(ctx, "fig10a");

        // ---- (b) drop rate vs arrival rate ----
        let mut fig_b = Table::new(
            "Figure 10b — packet drop rate (%) vs arrival rate (Mrps)",
            &[
                "rate (Mrps)",
                "128 buffers",
                "2048 buffers",
                "2048 + Sweeper",
            ],
        );
        for (rate, row) in RATES_MRPS.iter().zip(raw_b.chunks_exact(B_SERIES.len())) {
            let mut cells = vec![format!("{rate:.0}")];
            for outcome in row {
                cells.push(format!("{:.3}", outcome.report.drop_rate() * 100.0));
            }
            fig_b.row(cells);
        }
        fig_b.emit(ctx, "fig10b");
    }
}
