//! Figure 6 — *Memory access latency CDFs for the KVS application* (§VI-B).
//!
//! The 1024-buffers / 1 KB-packets scenario (Figure 5a's fifth bar
//! cluster). Left: DRAM access latency distribution for 2- and 12-way DDIO,
//! with and without Sweeper, each at its own peak load. Right: the same
//! four configurations compared iso-throughput, at the 2-way DDIO
//! baseline's achieved peak.
//!
//! This is the registry's one *two-stage* figure: the right-hand rate is
//! data-dependent (the baseline's discovered peak), so [`Figure::run`] is
//! overridden to run the peak stage, derive the iso rate, run the iso
//! stage, and render the concatenated outcomes.

use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;
use sweeper_core::server::RunReport;
use sweeper_core::telemetry::CsvTable;
use sweeper_workloads::kvs::HEADER_BYTES;

use super::Figure;
use crate::{f1, figure_experiment, write_result, FigContext, Table};

/// The four §VI-B configurations.
pub fn configs() -> Vec<Scenario> {
    vec![
        Scenario::ddio(2),
        Scenario::ddio_sweeper(2),
        Scenario::ddio(12),
        Scenario::ddio_sweeper(12),
    ]
}

/// The §VI-B point of `system`: 1 KB items, 1024 RX buffers per core.
fn kvs(system: Scenario, seed: u64) -> Scenario {
    Scenario {
        buffers: 1024,
        packet: 1024 + HEADER_BYTES,
        seed,
        ..system
    }
}

fn latency_row(label: &str, report: &RunReport) -> Vec<String> {
    let s = report.dram_latency.summary();
    vec![
        label.to_string(),
        f1(report.throughput_mrps()),
        format!("{:.0}", s.mean),
        s.p50.to_string(),
        s.p90.to_string(),
        s.p99.to_string(),
        s.max.to_string(),
    ]
}

fn emit_cdf(ctx: &FigContext, name: &str, label: &str, report: &RunReport) {
    let mut csv = CsvTable::new(&["latency_cycles", "cumulative_fraction"])
        .comments(&ctx.manifest().to_comments())
        .comment("artifact", name)
        .comment("config", label);
    for (v, f) in report.dram_latency.cdf() {
        csv.row(vec![v.to_string(), format!("{f:.6}")]);
    }
    let safe = label.replace([' ', '+'], "_");
    write_result(&format!("{name}_{safe}.csv"), &csv.to_csv());
}

/// The §VI-B latency-CDF study.
pub struct Fig6;

impl Fig6 {
    fn iso_points(profile: RunProfile, seed: u64, rate: f64) -> Vec<ExperimentPoint> {
        configs()
            .into_iter()
            .map(|system| {
                let s = kvs(system, seed);
                ExperimentPoint::at_rate(
                    format!("{} iso", s.label()),
                    figure_experiment(profile, &s),
                    rate,
                )
            })
            .collect()
    }
}

impl Figure for Fig6 {
    fn name(&self) -> &'static str {
        "fig6"
    }

    fn description(&self) -> &'static str {
        "DRAM latency CDFs at peak and iso-throughput load (§VI-B)"
    }

    /// Stage one only: each configuration at its own peak. The iso-rate
    /// stage depends on the first outcome's discovered peak and is built
    /// inside [`Figure::run`].
    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        configs()
            .into_iter()
            .map(|system| {
                let s = kvs(system, seed);
                ExperimentPoint::peak(s.label(), figure_experiment(profile, &s))
            })
            .collect()
    }

    fn run(&self, ctx: &FigContext) {
        let mut outcomes = ctx.fleet.run(self.points(ctx.profile, ctx.seed));
        // Iso-throughput stage at the 2-way DDIO baseline's achieved peak.
        let iso = outcomes[0]
            .peak_rate
            .expect("stage one points are peak searches");
        outcomes.extend(ctx.fleet.run(Self::iso_points(ctx.profile, ctx.seed, iso)));
        self.render(ctx, &outcomes);
    }

    /// Expects the four peak outcomes first; the four iso-rate outcomes,
    /// when present, follow.
    fn render(&self, ctx: &FigContext, outcomes: &[PointOutcome]) {
        let cols = &["config", "Mrps", "mean", "p50", "p90", "p99", "max"];
        let mut left = Table::new(
            "Figure 6 (left) — DRAM access latency at each config's peak load (cycles)",
            cols,
        );
        let mut right = Table::new(
            "Figure 6 (right) — iso-throughput DRAM access latency (cycles)",
            cols,
        );

        let n = configs().len();
        for (point, peak) in configs().iter().zip(&outcomes[..n]) {
            left.row(latency_row(&point.label(), &peak.report));
            emit_cdf(ctx, "fig6_peak", &point.label(), &peak.report);
        }
        left.emit(ctx, "fig6_left");

        if outcomes.len() > n {
            let iso = outcomes[0].peak_rate.expect("peak stage ran first");
            for (point, outcome) in configs().iter().zip(&outcomes[n..]) {
                right.row(latency_row(&point.label(), &outcome.report));
                emit_cdf(ctx, "fig6_iso", &point.label(), &outcome.report);
            }
            println!("(iso-throughput comparison at {:.1} Mrps)", iso / 1e6);
            right.emit(ctx, "fig6_right");
        }
    }
}
