//! Rendering of run reports as text, JSON and CSV.
//!
//! One private traversal lists what a [`RunReport`] shows, in order, as
//! report lines (a scalar, a latency distribution, a breakdown class or a
//! warning), followed by the machine-only extras and the profile tree. Each
//! rendering walks that one list:
//!
//! * [`text_report`] — the stable line-oriented `label : value` text (easy
//!   to grep) the CLI has always printed, with the per-class breakdown in
//!   the paper's legend order. The golden tests pin it.
//! * [`json_record`] — a typed [`Record`] with every scalar the text shows
//!   *plus* the machine-only extras (raw counters, full latency summaries,
//!   the memory-system record, per-channel transfer counts).
//! * [`csv_report`] — one wide CSV row, flattened, for spreadsheet
//!   ingestion.
//!
//! Because every format walks the same list, a value shown in the text
//! report appears — bit-equal — in the JSON and CSV exports;
//! `tests/telemetry_golden.rs` enforces this and pins all three.

use std::fmt::Write as _;

use sweeper_sim::span::ProfileNode;
use sweeper_sim::stats::{HistogramSummary, TrafficClass};
use sweeper_sim::telemetry::{CsvTable, Record, Value};

use crate::server::RunReport;

/// One line of the report as the text shows it.
enum Line {
    /// A named scalar: `key` is the stable machine identifier (JSON/CSV
    /// field name), `label` the text label, `value` the typed value and
    /// `text` its unit-bearing text rendering.
    Scalar {
        key: &'static str,
        label: &'static str,
        value: Value,
        text: String,
    },
    /// A latency distribution: one text line, the full summary in JSON,
    /// and mean/p50/p99 columns in CSV.
    Latency {
        key: &'static str,
        label: &'static str,
        summary: HistogramSummary,
        text: String,
    },
    /// One per-class access-breakdown entry (accesses per request).
    Class(TrafficClass, f64),
    /// A warning.
    Warning(String),
}

fn scalar(key: &'static str, label: &'static str, value: impl Into<Value>, text: String) -> Line {
    Line::Scalar {
        key,
        label,
        value: value.into(),
        text,
    }
}

/// A latency line; the text shows p50 only when `show_p50`.
fn latency(
    key: &'static str,
    label: &'static str,
    summary: HistogramSummary,
    show_p50: bool,
) -> Line {
    let p50 = if show_p50 {
        format!("  p50 {}", summary.p50)
    } else {
        String::new()
    };
    let text = format!("mean {:.0}{p50}  p99 {} cycles", summary.mean, summary.p99);
    Line::Latency {
        key,
        label,
        summary,
        text,
    }
}

/// The report's lines, in the order every rendering shows them.
fn lines(report: &RunReport) -> Vec<Line> {
    let throughput = report.throughput_mrps();
    let goodput = report.goodput_ratio();
    let drop_rate = report.drop_rate();
    let gbps = report.memory_bandwidth_gbps();
    let apr = report.total_accesses_per_request();
    let mut lines = vec![
        scalar(
            "workload",
            "workload",
            report.workload.as_str(),
            report.workload.clone(),
        ),
        scalar(
            "completed",
            "completed",
            report.completed,
            report.completed.to_string(),
        ),
        scalar(
            "throughput_mrps",
            "throughput",
            throughput,
            format!("{throughput:.2} Mrps"),
        ),
        scalar(
            "goodput_ratio",
            "goodput ratio",
            goodput,
            format!("{goodput:.3}"),
        ),
        scalar(
            "drop_rate",
            "drop rate",
            drop_rate,
            format!("{:.4}%", drop_rate * 100.0),
        ),
        scalar(
            "memory_bandwidth_gbps",
            "memory bandwidth",
            gbps,
            format!("{gbps:.2} GB/s"),
        ),
        latency(
            "request_latency",
            "request latency",
            report.request_latency.summary(),
            true,
        ),
        latency(
            "dram_latency",
            "dram read latency",
            report.dram_latency.summary(),
            false,
        ),
        scalar(
            "accesses_per_request",
            "accesses/request",
            apr,
            format!("{apr:.2}"),
        ),
    ];
    lines.extend(report.breakdown().map(|(class, v)| Line::Class(class, v)));
    if report.mem.sweep_saved_writebacks > 0 {
        let per = report.mem.sweep_saved_writebacks as f64 / report.completed.max(1) as f64;
        lines.push(scalar(
            "writebacks_saved_per_request",
            "writebacks saved",
            per,
            format!("{per:.2}/request"),
        ));
    }
    if report.timed_out {
        lines.push(Line::Warning(
            "run hit max_cycles before its quota".to_string(),
        ));
    }
    if let Some(check) = &report.check {
        let status = if check.passed() { "pass" } else { "FAIL" };
        lines.push(scalar(
            "check_status",
            "check",
            status,
            format!(
                "{status} ({} events, {} walks, {} violations)",
                check.events,
                check.walks,
                check.total_violations()
            ),
        ));
        for (kind, n) in check.violations() {
            lines.push(Line::Warning(format!("check: {n}x {kind}")));
        }
    }
    lines
}

/// The machine-only fields: everything the text report summarizes away.
fn extras(report: &RunReport) -> Vec<(&'static str, Value)> {
    let channels = report
        .channel_transfers
        .iter()
        .map(|&(r, w)| Value::from(Record::new().with("reads", r).with("writes", w)))
        .collect();
    let mut extras = vec![
        ("offered", Value::from(report.offered)),
        ("dropped", Value::from(report.dropped)),
        ("elapsed_cycles", Value::from(report.elapsed_cycles)),
        (
            "background_iterations",
            Value::from(report.background_iterations),
        ),
        ("timed_out", Value::from(report.timed_out)),
        (
            "service_time",
            Value::from(report.service_time.summary().to_record()),
        ),
        ("mem", Value::from(report.mem.to_record())),
        ("channel_transfers", Value::Array(channels)),
    ];
    if let Some(check) = &report.check {
        extras.push(("check", Value::from(check.to_record())));
    }
    extras
}

/// Renders `report` as the stable text format.
pub fn text_report(report: &RunReport) -> String {
    let mut out = String::new();
    for line in lines(report) {
        let _ = match line {
            Line::Scalar { label, text, .. } | Line::Latency { label, text, .. } => {
                writeln!(out, "{label:<20}: {text}")
            }
            Line::Class(class, v) => writeln!(out, "    {class:<14}: {v:.2}"),
            Line::Warning(text) => writeln!(out, "{:<20}: {text}", "WARNING"),
        };
    }
    if let Some(profile) = &report.profile {
        let _ = writeln!(
            out,
            "{:<20}: {} cycles over {} requests",
            "profile", profile.cycles, profile.count
        );
        let requests = profile.count.max(1) as f64;
        for child in &profile.children {
            profile_text(&mut out, child, 1, requests);
        }
    }
    out
}

fn profile_text(out: &mut String, node: &ProfileNode, depth: usize, requests: f64) {
    let indent = "    ".repeat(depth);
    let _ = writeln!(
        out,
        "{indent}{:<14}: {:.0} cyc/req  {:.2} dram/req",
        node.label,
        node.cycles as f64 / requests,
        node.dram_accesses() as f64 / requests,
    );
    for child in &node.children {
        profile_text(out, child, depth + 1, requests);
    }
}

/// Renders `report` as a typed [`Record`] (the `"report"` section of the
/// JSON run document).
///
/// Scalars and extras land in report order; the per-class breakdown is
/// gathered into a `"breakdown"` array and warnings into `"warnings"`,
/// both appended at the end so the document shape is fixed.
pub fn json_record(report: &RunReport) -> Record {
    let mut rec = Record::new();
    let mut breakdown = Vec::new();
    let mut warnings = Vec::new();
    for line in lines(report) {
        match line {
            Line::Scalar { key, value, .. } => rec.push(key, value),
            Line::Latency { key, summary, .. } => rec.push(key, summary.to_record()),
            Line::Class(class, v) => breakdown.push(Value::from(
                Record::new()
                    .with("class", class.to_string())
                    .with("per_request", v),
            )),
            Line::Warning(text) => warnings.push(Value::from(text)),
        }
    }
    for (key, value) in extras(report) {
        rec.push(key, value);
    }
    if let Some(profile) = &report.profile {
        rec.push("profile", profile.to_record());
    }
    rec.push("breakdown", Value::Array(breakdown));
    rec.push("warnings", Value::Array(warnings));
    rec
}

/// Renders `report` as one wide CSV row under `# key: value` comment lines
/// (`comments`, usually the run manifest).
///
/// Latency summaries expand to `<key>_mean`/`<key>_p50`/`<key>_p99`
/// columns, breakdown classes to `per_request[<class>]` columns and the
/// profile to one cycle and one DRAM column per stage path; nested extras
/// (records, arrays) are embedded as compact JSON cells, and warnings are
/// joined into a last `warnings` column when there are any.
pub fn csv_report(report: &RunReport, comments: &[(String, String)]) -> String {
    let mut columns: Vec<(String, Value)> = Vec::new();
    let mut warnings = Vec::new();
    for line in lines(report) {
        match line {
            Line::Scalar { key, value, .. } => columns.push((key.to_string(), value)),
            Line::Latency { key, summary, .. } => columns.extend([
                (format!("{key}_mean"), Value::from(summary.mean)),
                (format!("{key}_p50"), Value::from(summary.p50)),
                (format!("{key}_p99"), Value::from(summary.p99)),
            ]),
            Line::Class(class, v) => {
                columns.push((format!("per_request[{class}]"), Value::from(v)))
            }
            Line::Warning(text) => warnings.push(text),
        }
    }
    columns.extend(
        extras(report)
            .into_iter()
            .map(|(key, value)| (key.to_string(), value)),
    );
    if let Some(profile) = &report.profile {
        profile_columns(&mut columns, profile, &profile.label);
    }
    if !warnings.is_empty() {
        columns.push(("warnings".to_string(), Value::from(warnings.join("; "))));
    }
    let headers: Vec<&str> = columns.iter().map(|(k, _)| k.as_str()).collect();
    let mut table = CsvTable::new(&headers).comments(comments);
    table.value_row(columns.iter().map(|(_, v)| v.clone()).collect());
    table.to_csv()
}

/// One cycle and one DRAM column per profile stage path, so totals can be
/// checked in a spreadsheet without JSON parsing.
fn profile_columns(columns: &mut Vec<(String, Value)>, node: &ProfileNode, path: &str) {
    columns.push((format!("profile_cycles[{path}]"), Value::from(node.cycles)));
    columns.push((
        format!("profile_dram[{path}]"),
        Value::from(node.dram_accesses()),
    ));
    for child in &node.children {
        profile_columns(columns, child, &format!("{path}.{}", child.label));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use crate::server::MIN_CLASS;
    use crate::workload::EchoWorkload;

    fn report() -> RunReport {
        Experiment::new(ExperimentConfig::tiny_for_tests(), || {
            EchoWorkload::with_think(100)
        })
        .run_at_rate(1.0e6)
    }

    #[test]
    fn text_contains_all_sections() {
        let r = report();
        let text = text_report(&r);
        for key in [
            "workload",
            "completed",
            "throughput",
            "memory bandwidth",
            "request latency",
            "dram read latency",
            "accesses/request",
        ] {
            assert!(text.contains(key), "missing section '{key}' in:\n{text}");
        }
        assert!(!text.contains("WARNING"));
    }

    #[test]
    fn json_record_carries_text_scalars() {
        let r = report();
        let rec = json_record(&r);
        assert_eq!(rec.get("workload"), Some(&Value::Str(r.workload.clone())));
        assert_eq!(rec.get("completed"), Some(&Value::U64(r.completed)));
        assert_eq!(
            rec.get("throughput_mrps"),
            Some(&Value::F64(r.throughput_mrps()))
        );
        assert!(matches!(rec.get("request_latency"), Some(Value::Record(_))));
        assert!(matches!(rec.get("mem"), Some(Value::Record(_))));
        assert!(matches!(rec.get("breakdown"), Some(Value::Array(_))));
        assert_eq!(rec.get("warnings"), Some(&Value::Array(vec![])));
    }

    #[test]
    fn json_breakdown_matches_class_filter() {
        let r = report();
        let rec = json_record(&r);
        let Some(Value::Array(breakdown)) = rec.get("breakdown") else {
            panic!("breakdown missing");
        };
        let expected = r
            .accesses_per_request()
            .into_iter()
            .filter(|(_, v)| *v > MIN_CLASS)
            .count();
        assert_eq!(breakdown.len(), expected);
    }

    #[test]
    fn csv_report_emits_one_row() {
        let r = report();
        let csv = csv_report(&r, &[("seed".into(), "1".into())]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# seed: 1");
        assert!(lines[1].starts_with("workload,completed,throughput_mrps"));
        assert_eq!(lines.len(), 3, "comments + header + one data row");
        assert!(lines[1].contains("request_latency_p99"));
    }

    #[test]
    fn profile_reaches_every_format_with_matching_totals() {
        let r = Experiment::new(ExperimentConfig::tiny_for_tests().profiler(), || {
            EchoWorkload::with_think(100)
        })
        .run_at_rate(1.0e6);
        let profile = r.profile.as_ref().expect("profiler enabled");

        let text = text_report(&r);
        assert!(text.contains(&format!(
            "profile             : {} cycles over {} requests",
            profile.cycles, profile.count
        )));
        assert!(text.contains("nic_dma"));
        assert!(text.contains("service"));

        let rec = json_record(&r);
        let Some(Value::Record(json_profile)) = rec.get("profile") else {
            panic!("profile missing from JSON");
        };
        assert_eq!(
            json_profile.get("cycles"),
            Some(&Value::U64(profile.cycles))
        );

        let csv = csv_report(&r, &[]);
        assert!(csv.contains("profile_cycles[request]"));
        assert!(csv.contains("profile_cycles[request.service.cpu_read]"));
        assert!(csv.contains(&profile.cycles.to_string()));
    }

    #[test]
    fn warnings_reach_every_format() {
        let options = crate::server::RunOptions {
            max_cycles: 100_000,
            ..crate::server::RunOptions::quick()
        };
        let r = Experiment::new(
            ExperimentConfig::tiny_for_tests().run_options(options),
            || EchoWorkload::with_think(100),
        )
        .run_at_rate(1.0e6);
        assert!(r.timed_out);
        let warning = "run hit max_cycles before its quota";
        assert!(text_report(&r).contains(&format!("WARNING             : {warning}\n")));
        assert_eq!(
            json_record(&r).get("warnings"),
            Some(&Value::Array(vec![Value::from(warning)]))
        );
        let csv = csv_report(&r, &[]);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with(",warnings"));
        assert!(lines[1].ends_with(&format!(",{warning}")));
    }

    #[test]
    fn text_report_unchanged_without_profiler() {
        let r = report();
        assert!(r.profile.is_none());
        assert!(!text_report(&r).contains("profile"));
    }
}
