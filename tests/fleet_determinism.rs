//! The fleet's hard guarantee: results are a function of the point list
//! alone, never of the worker count — plus the figure-registry contract the
//! `sweeper figure` command relies on.

use sweeper::bench::figs;
use sweeper::core::experiment::ExperimentConfig;
use sweeper::core::fleet::{ExperimentPoint, Fleet, PointOutcome};
use sweeper::core::profile::RunProfile;
use sweeper::core::report::text_report;
use sweeper::core::telemetry::{fleet_document, RunManifest};
use sweeper::core::workload::EchoWorkload;

/// A mixed-action point list over the tiny test machine: open-loop points
/// at staggered rates plus closed-loop keep-queued points.
fn points() -> Vec<ExperimentPoint> {
    let mut out = Vec::new();
    for i in 0..6 {
        out.push(ExperimentPoint::at_rate(
            format!("rate#{i}"),
            ExperimentConfig::tiny_for_tests().experiment(|| EchoWorkload::with_think(150)),
            1.5e6 + i as f64 * 2.0e5,
        ));
    }
    for depth in [2usize, 8] {
        out.push(ExperimentPoint::keep_queued(
            format!("kq#{depth}"),
            ExperimentConfig::tiny_for_tests().experiment(|| EchoWorkload::with_think(150)),
            depth,
        ));
    }
    out
}

/// Every aggregate the harness renders, serialized to text — if any counter,
/// histogram, or derived statistic moved, the bytes move.
fn fingerprint(outcomes: &[PointOutcome]) -> String {
    outcomes
        .iter()
        .map(|o| format!("## {}\n{}", o.label, text_report(&o.report)))
        .collect()
}

#[test]
fn fleet_outcomes_are_byte_identical_across_worker_counts() {
    let one = fingerprint(&Fleet::new(1).quiet().run(points()));
    let four = fingerprint(&Fleet::new(4).quiet().run(points()));
    assert!(!one.is_empty());
    assert_eq!(one, four, "--jobs 1 and --jobs 4 must render identically");
}

/// The structured export inherits the guarantee: fleet JSON documents are
/// byte-identical for any worker count (per-point wall time is deliberately
/// excluded from `PointOutcome::to_record`).
#[test]
fn fleet_json_is_byte_identical_across_worker_counts() {
    let manifest = RunManifest::new().profile("test").seed(1);
    let one = fleet_document(&Fleet::new(1).quiet().run(points()), &manifest).to_json_pretty();
    let four = fleet_document(&Fleet::new(4).quiet().run(points()), &manifest).to_json_pretty();
    assert!(one.contains("sweeper.fleet/1"));
    assert!(
        !one.contains("wall"),
        "wall time must stay out of fleet JSON"
    );
    assert_eq!(one, four, "fleet JSON must not depend on --jobs");
}

#[test]
fn figure_registry_enumerates_unique_labelled_points() {
    assert!(!figs::registry().is_empty());
    for figure in figs::registry() {
        let points = figure.points(RunProfile::Smoke, 1);
        assert!(
            !points.is_empty(),
            "{} must enumerate at least one point",
            figure.name()
        );
        let labels: std::collections::HashSet<&str> = points.iter().map(|p| p.label()).collect();
        assert_eq!(
            labels.len(),
            points.len(),
            "{} has duplicate point labels",
            figure.name()
        );
    }
}
