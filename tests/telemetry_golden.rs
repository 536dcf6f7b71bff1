//! Telemetry contract tests: the JSON run document is schema-stable and
//! agrees — value for value — with the text report, and the CSV and full
//! text renderings are pinned byte for byte.
//!
//! The golden snapshots pin the *shape and content* of each export the same
//! way `golden_fig1` pins the text fingerprint: any field rename, reorder,
//! or numeric drift shows up as a byte diff. Regenerate intentionally with
//! `SWEEPER_BLESS=1 cargo test --test telemetry_golden` and inspect the
//! diff before committing. The manifest's `version` field is a placeholder
//! so routine version bumps don't invalidate the snapshots.

use std::path::PathBuf;

use sweeper::core::experiment::{Experiment, ExperimentConfig};
use sweeper::core::report::{csv_report, json_record, text_report};
use sweeper::core::server::RunReport;
use sweeper::core::telemetry::{run_document, validate_run_document, Record, RunManifest, Value};
use sweeper::core::workload::EchoWorkload;
use sweeper::sim::check::CheckConfig;

const SEED: u64 = 7;

/// A deterministic run: tiny machine, echo workload, fixed seed.
fn report() -> RunReport {
    let cfg = ExperimentConfig::tiny_for_tests().seed(SEED);
    Experiment::new(cfg, || EchoWorkload::with_think(100)).run_at_rate(1.0e6)
}

/// The same run with the profiler and the correctness harness on, so the
/// report carries its profile and check sections.
fn full_report() -> RunReport {
    let cfg = ExperimentConfig::tiny_for_tests()
        .seed(SEED)
        .profiler()
        .check(CheckConfig::default());
    Experiment::new(cfg, || EchoWorkload::with_think(100)).run_at_rate(1.0e6)
}

/// A fixed manifest: no wall time, and a placeholder version so crate
/// version bumps don't invalidate the snapshots.
fn manifest() -> RunManifest {
    let mut manifest = RunManifest::new()
        .profile("test")
        .config("tiny_for_tests")
        .workload("echo")
        .seed(SEED);
    manifest.version = "<version>".to_string();
    manifest
}

fn golden_path(file: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(file)
}

fn check_golden(file: &str, actual: &str) {
    let path = golden_path(file);
    if std::env::var("SWEEPER_BLESS").is_ok_and(|v| !v.is_empty()) {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {file} ({e}); bless with SWEEPER_BLESS=1"));
    assert_eq!(
        expected, actual,
        "run report diverged from golden '{file}' — a field rename or \
         reorder is a schema break (bless only if intentional)"
    );
}

fn f64_of(rec: &Record, key: &str) -> f64 {
    match rec.get(key) {
        Some(Value::F64(v)) => *v,
        other => panic!("'{key}' should be a float, got {other:?}"),
    }
}

fn u64_of(rec: &Record, key: &str) -> u64 {
    match rec.get(key) {
        Some(Value::U64(v)) => *v,
        other => panic!("'{key}' should be an integer, got {other:?}"),
    }
}

fn record_of<'a>(rec: &'a Record, key: &str) -> &'a Record {
    match rec.get(key) {
        Some(Value::Record(r)) => r,
        other => panic!("'{key}' should be a record, got {other:?}"),
    }
}

/// The value printed for `label` in the text report (labels pad to 20).
fn text_value<'a>(text: &'a str, label: &str) -> &'a str {
    let prefix = format!("{label:<20}: ");
    text.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("missing '{label}' in text report:\n{text}"))
}

#[test]
fn run_report_json_matches_golden_and_schema() {
    let doc = run_document(&report(), &manifest());
    validate_run_document(&doc).expect("run document must satisfy the schema");
    check_golden("run_report.json", &doc.to_json_pretty());
}

/// The one-row CSV, manifest comments included, with every optional
/// section (profile columns, check record) present.
#[test]
fn run_report_csv_matches_golden() {
    let csv = csv_report(&full_report(), &manifest().to_comments());
    check_golden("run_report.csv", &csv);
}

/// The text report with its profile tree and check line.
#[test]
fn full_text_report_matches_golden() {
    let report = full_report();
    assert!(report.profile.is_some() && report.check.is_some());
    check_golden("run_report_full.txt", &text_report(&report));
}

#[test]
fn text_and_json_reports_agree_on_every_shared_scalar() {
    let report = report();
    let text = text_report(&report);
    let rec = json_record(&report);

    assert_eq!(
        text_value(&text, "completed"),
        u64_of(&rec, "completed").to_string()
    );
    assert_eq!(
        text_value(&text, "throughput"),
        format!("{:.2} Mrps", f64_of(&rec, "throughput_mrps"))
    );
    assert_eq!(
        text_value(&text, "goodput ratio"),
        format!("{:.3}", f64_of(&rec, "goodput_ratio"))
    );
    assert_eq!(
        text_value(&text, "drop rate"),
        format!("{:.4}%", f64_of(&rec, "drop_rate") * 100.0)
    );
    assert_eq!(
        text_value(&text, "memory bandwidth"),
        format!("{:.2} GB/s", f64_of(&rec, "memory_bandwidth_gbps"))
    );
    assert_eq!(
        text_value(&text, "accesses/request"),
        format!("{:.2}", f64_of(&rec, "accesses_per_request"))
    );
    let lat = record_of(&rec, "request_latency");
    assert_eq!(
        text_value(&text, "request latency"),
        format!(
            "mean {:.0}  p50 {}  p99 {} cycles",
            f64_of(lat, "mean"),
            u64_of(lat, "p50"),
            u64_of(lat, "p99")
        )
    );
    let dram = record_of(&rec, "dram_latency");
    assert_eq!(
        text_value(&text, "dram read latency"),
        format!(
            "mean {:.0}  p99 {} cycles",
            f64_of(dram, "mean"),
            u64_of(dram, "p99")
        )
    );
}

/// The document is a pure function of the run: two identical runs export
/// byte-identical JSON (the manifest carries no wall-clock time here).
#[test]
fn run_document_is_deterministic() {
    let manifest = RunManifest::new().seed(SEED);
    let a = run_document(&report(), &manifest).to_json_pretty();
    let b = run_document(&report(), &manifest).to_json_pretty();
    assert_eq!(a, b);
}
