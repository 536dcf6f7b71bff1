//! The fleet's hard guarantee: results are a function of the point list
//! alone, never of the worker count.

use sweeper::core::experiment::ExperimentConfig;
use sweeper::core::fleet::{ExperimentPoint, Fleet, PointOutcome};
use sweeper::core::report::{json_record, text_report};
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
    let one = fingerprint(&Fleet::new(1).run(points()));
    let four = fingerprint(&Fleet::new(4).run(points()));
    assert!(!one.is_empty());
    assert_eq!(one, four, "--jobs 1 and --jobs 4 must render identically");
}

/// Each outcome's label, peak rate and report JSON.
fn json_fingerprint(outcomes: &[PointOutcome]) -> Vec<String> {
    outcomes
        .iter()
        .map(|o| {
            let report = json_record(&o.report).to_json_pretty();
            format!("{} {:?}\n{report}", o.label, o.peak_rate)
        })
        .collect()
}

/// The structured export inherits the guarantee: each outcome's JSON is
/// byte-identical for any worker count (reports carry no wall time).
#[test]
fn fleet_json_is_byte_identical_across_worker_counts() {
    let one = json_fingerprint(&Fleet::new(1).run(points()));
    let four = json_fingerprint(&Fleet::new(4).run(points()));
    assert!(
        one.iter().all(|json| !json.contains("wall")),
        "wall time must stay out of report JSON"
    );
    assert_eq!(one, four, "report JSON must not depend on --jobs");
}
