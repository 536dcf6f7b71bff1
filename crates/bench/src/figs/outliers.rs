//! Outlier drill-down — flight-recorder tail-latency attribution.
//!
//! A companion study to Figure 6: instead of whole-distribution CDFs, run
//! the §VI-B configurations with the tail-latency flight recorder armed and
//! attribute the *outlier* requests' span windows to pipeline stages. The
//! table compares each configuration's tail threshold and worst capture;
//! the per-config CSVs break the captured windows down by stage and set the
//! outlier share against the profiler's per-request average, so a stage
//! that is over-represented in the tail stands out.

use std::collections::HashMap;

use sweeper_core::experiment::Experiment;
use sweeper_core::fleet::{ExperimentPoint, PointOutcome};
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::Scenario;
use sweeper_core::server::{FlightRecorderConfig, RunReport};
use sweeper_core::telemetry::CsvTable;
use sweeper_sim::span::{OutlierSnapshot, ProfileNode, SpanKind};
use sweeper_workloads::kvs::HEADER_BYTES;

use super::Figure;
use crate::{f1, figure_manifest, figure_run_options, scenario_experiment, Table};

/// Offered load for the drill-down, Mrps: high enough that queueing shapes
/// the tail, low enough that every configuration still sustains it.
const RATE_MRPS: f64 = 16.0;

/// The §VI-B configurations, minus the 12-way points (the drill-down is
/// about *where* tail cycles go, which two way-counts already contrast).
fn configs() -> Vec<Scenario> {
    vec![Scenario::ddio(2), Scenario::ddio_sweeper(2)]
}

/// Flight-recorder arming for the study: a p99 threshold with a short
/// confidence window so even smoke-profile runs capture snapshots.
fn recorder() -> FlightRecorderConfig {
    FlightRecorderConfig {
        quantile: 0.99,
        min_samples: 256,
        window: 256,
        max_snapshots: 16,
    }
}

/// The §VI-B point of `s` (1 KB items, 1024 RX buffers per core) with
/// spans, the profiler and the flight recorder on.
fn experiment(profile: RunProfile, s: &Scenario) -> Experiment {
    let cfg = s
        .to_config()
        .run_options(figure_run_options(profile, s))
        .spans(65_536)
        .profiler()
        .flight(recorder());
    scenario_experiment(cfg, s)
}

/// Sums captured span durations per stage across every snapshot window.
fn stage_cycles(snapshots: &[OutlierSnapshot]) -> HashMap<SpanKind, (u64, u64)> {
    let mut by_stage: HashMap<SpanKind, (u64, u64)> = HashMap::new();
    for snap in snapshots {
        for ev in &snap.window {
            let slot = by_stage.entry(ev.kind).or_default();
            slot.0 += ev.duration();
            slot.1 += 1;
        }
    }
    by_stage
}

/// The profiler's per-request average for a stage, from the report's
/// profile tree (stages live one or two levels below the root).
fn mean_cycles_per_request(profile: &ProfileNode, stage: SpanKind) -> f64 {
    fn find<'a>(node: &'a ProfileNode, label: &str) -> Option<&'a ProfileNode> {
        if node.label == label {
            return Some(node);
        }
        node.children.iter().find_map(|c| find(c, label))
    }
    let requests = profile.count.max(1) as f64;
    find(profile, stage.label()).map_or(0.0, |n| n.cycles as f64 / requests)
}

fn emit_drilldown(label: &str, report: &RunReport) {
    let Some(snapshots) = &report.outliers else {
        return;
    };
    let by_stage = stage_cycles(snapshots);
    let total: u64 = by_stage.values().map(|&(c, _)| c).sum();
    let mut csv = CsvTable::new(&[
        "stage",
        "outlier_cycles",
        "outlier_share",
        "events",
        "mean_cyc_per_req",
    ])
    .comments(&figure_manifest().to_comments())
    .comment("artifact", "outliers")
    .comment("config", label)
    .comment("snapshots", snapshots.len().to_string().as_str());
    for kind in SpanKind::ALL {
        let (cycles, events) = by_stage.get(&kind).copied().unwrap_or((0, 0));
        let mean = report
            .profile
            .as_ref()
            .map_or(0.0, |p| mean_cycles_per_request(p, kind));
        csv.row(vec![
            kind.label().to_string(),
            cycles.to_string(),
            format!("{:.4}", cycles as f64 / total.max(1) as f64),
            events.to_string(),
            format!("{mean:.1}"),
        ]);
    }
    let safe = label.replace([' ', '+'], "_");
    let path = std::path::PathBuf::from("results").join(format!("outliers_{safe}.csv"));
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, csv.to_csv()))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
}

/// The flight-recorder tail-attribution study.
pub struct Outliers;

impl Figure for Outliers {
    fn name(&self) -> &'static str {
        "outliers"
    }

    fn description(&self) -> &'static str {
        "tail-latency outlier drill-down via the flight recorder"
    }

    fn points(&self, profile: RunProfile, seed: u64) -> Vec<ExperimentPoint> {
        configs()
            .into_iter()
            .map(|system| {
                let s = Scenario {
                    buffers: 1024,
                    packet: 1024 + HEADER_BYTES,
                    seed,
                    ..system
                };
                ExperimentPoint::at_rate(s.label(), experiment(profile, &s), RATE_MRPS * 1e6)
            })
            .collect()
    }

    fn render(&self, _profile: RunProfile, outcomes: &[PointOutcome]) {
        let mut table = Table::new(
            "Outlier drill-down — tail snapshots beyond the online p99 (cycles)",
            &["config", "Mrps", "p50", "p99", "snaps", "worst", "dominant stage"],
        );
        for (point, outcome) in configs().iter().zip(outcomes) {
            let report = &outcome.report;
            let snapshots = report.outliers.as_deref().unwrap_or(&[]);
            let worst = snapshots.iter().map(|s| s.latency).max().unwrap_or(0);
            let dominant = stage_cycles(snapshots)
                .into_iter()
                .max_by_key(|&(_, (cycles, _))| cycles)
                .map_or_else(|| "-".to_string(), |(kind, _)| kind.label().to_string());
            table.row(vec![
                point.label(),
                f1(report.throughput_mrps()),
                report.request_latency.percentile(0.5).to_string(),
                report.request_latency.percentile(0.99).to_string(),
                snapshots.len().to_string(),
                worst.to_string(),
                dominant,
            ]);
            emit_drilldown(&point.label(), report);
        }
        table.emit("outliers");
    }
}
