//! Rendering of run reports through pluggable sinks.
//!
//! The CLI, the examples, and ad-hoc drivers all need the same summary of a
//! [`RunReport`]. One traversal, [`emit`], walks the report exactly once and
//! streams typed events into a [`ReportSink`]; the sink decides the output
//! format:
//!
//! * [`TextSink`] — the stable line-oriented `key : value` text (easy to
//!   grep) the CLI has always printed, with the per-class breakdown in the
//!   paper's legend order. Byte-identical to the historical `render`
//!   output: the golden tests pin it.
//! * [`JsonSink`] — a typed [`Record`] with every scalar the text shows
//!   *plus* machine-only extras (raw counters, full latency summaries, the
//!   memory-system record, per-channel transfer counts).
//! * [`CsvSink`] — one wide CSV row, flattened, for spreadsheet ingestion.
//!
//! Because every format flows through the same traversal, a value shown in
//! the text report is guaranteed to appear — bit-equal — in the JSON and
//! CSV exports; `tests/telemetry_golden.rs` enforces this.

use std::fmt::Write as _;

use sweeper_sim::span::ProfileNode;
use sweeper_sim::stats::{HistogramSummary, TrafficClass};
use sweeper_sim::telemetry::{CsvTable, Record, Value};

use crate::server::RunReport;

/// Controls which sections [`emit`] includes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportStyle {
    /// Include the per-class access breakdown.
    pub breakdown: bool,
    /// Include DRAM latency percentiles.
    pub dram_latency: bool,
    /// Include Sweeper savings when present.
    pub sweeper: bool,
    /// Hide classes below this many accesses/request.
    pub min_class: f64,
}

impl Default for ReportStyle {
    fn default() -> Self {
        Self {
            breakdown: true,
            dram_latency: true,
            sweeper: true,
            min_class: 0.005,
        }
    }
}

impl ReportStyle {
    /// A one-look summary without breakdowns.
    pub fn brief() -> Self {
        Self {
            breakdown: false,
            dram_latency: false,
            sweeper: false,
            min_class: 0.005,
        }
    }
}

/// Receives the typed event stream of one report traversal.
///
/// Implementations decide what to keep and how to format it; [`emit`] calls
/// the methods in a fixed order so sinks never need to re-sort.
pub trait ReportSink {
    /// A named scalar. `key` is the stable machine identifier (JSON/CSV
    /// field name), `label` the human label, `value` the typed value, and
    /// `pretty` the unit-bearing text rendering.
    fn scalar(&mut self, key: &str, label: &str, value: Value, pretty: &str);

    /// A latency distribution. Text shows mean/p50/p99 (p50 only when
    /// `show_p50`); machine formats get the full summary.
    fn latency(&mut self, key: &str, label: &str, summary: &HistogramSummary, show_p50: bool);

    /// One per-class access-breakdown entry (accesses per request).
    fn class(&mut self, class: TrafficClass, per_request: f64);

    /// A warning line.
    fn warning(&mut self, text: &str);

    /// A machine-only value (raw counters, nested records). Text sinks
    /// ignore these; the default does nothing.
    fn extra(&mut self, _key: &str, _value: Value) {}

    /// The hierarchical cycle-attribution profile, offered once at the end
    /// of the traversal when the run had the profiler enabled. The default
    /// does nothing, so sinks that predate the profiler stay valid.
    fn profile(&mut self, _node: &ProfileNode) {}
}

/// Walks `report` once, streaming it into `sink`.
pub fn emit(report: &RunReport, style: ReportStyle, sink: &mut dyn ReportSink) {
    sink.scalar(
        "workload",
        "workload",
        Value::from(report.workload.as_str()),
        &report.workload,
    );
    sink.scalar(
        "completed",
        "completed",
        Value::from(report.completed),
        &report.completed.to_string(),
    );
    let throughput = report.throughput_mrps();
    sink.scalar(
        "throughput_mrps",
        "throughput",
        Value::from(throughput),
        &format!("{throughput:.2} Mrps"),
    );
    let goodput = report.goodput_ratio();
    sink.scalar(
        "goodput_ratio",
        "goodput ratio",
        Value::from(goodput),
        &format!("{goodput:.3}"),
    );
    let drop_rate = report.drop_rate();
    sink.scalar(
        "drop_rate",
        "drop rate",
        Value::from(drop_rate),
        &format!("{:.4}%", drop_rate * 100.0),
    );
    let gbps = report.memory_bandwidth_gbps();
    sink.scalar(
        "memory_bandwidth_gbps",
        "memory bandwidth",
        Value::from(gbps),
        &format!("{gbps:.2} GB/s"),
    );
    sink.latency(
        "request_latency",
        "request latency",
        &report.request_latency.summary(),
        true,
    );
    if style.dram_latency {
        sink.latency(
            "dram_latency",
            "dram read latency",
            &report.dram_latency.summary(),
            false,
        );
    }
    let apr = report.total_accesses_per_request();
    sink.scalar(
        "accesses_per_request",
        "accesses/request",
        Value::from(apr),
        &format!("{apr:.2}"),
    );
    if style.breakdown {
        for (class, v) in report.accesses_per_request() {
            if v > style.min_class {
                sink.class(class, v);
            }
        }
    }
    if style.sweeper && report.mem.sweep_saved_writebacks > 0 {
        let per = report.mem.sweep_saved_writebacks as f64 / report.completed.max(1) as f64;
        sink.scalar(
            "writebacks_saved_per_request",
            "writebacks saved",
            Value::from(per),
            &format!("{per:.2}/request"),
        );
    }
    if report.timed_out {
        sink.warning("run hit max_cycles before its quota");
    }
    if let Some(check) = &report.check {
        let status = if check.passed() { "pass" } else { "FAIL" };
        sink.scalar(
            "check_status",
            "check",
            Value::from(status),
            &format!(
                "{status} ({} events, {} walks, {} violations)",
                check.events,
                check.walks,
                check.total_violations()
            ),
        );
        for (kind, n) in &check.violations {
            if *n > 0 {
                sink.warning(&format!("check: {n}x {kind}"));
            }
        }
    }

    // Machine-only extras: everything the text report summarizes away.
    sink.extra("offered", Value::from(report.offered));
    sink.extra("dropped", Value::from(report.dropped));
    sink.extra("elapsed_cycles", Value::from(report.elapsed_cycles));
    sink.extra(
        "background_iterations",
        Value::from(report.background_iterations),
    );
    sink.extra("timed_out", Value::from(report.timed_out));
    sink.extra(
        "service_time",
        Value::from(report.service_time.summary().to_record()),
    );
    sink.extra("mem", Value::from(report.mem.to_record()));
    sink.extra(
        "channel_transfers",
        Value::Array(
            report
                .channel_transfers
                .iter()
                .map(|&(r, w)| {
                    Value::from(Record::new().with("reads", r).with("writes", w))
                })
                .collect(),
        ),
    );
    if let Some(check) = &report.check {
        sink.extra("check", Value::from(check.to_record()));
    }
    if let Some(profile) = &report.profile {
        sink.profile(profile);
    }
}

/// Renders `report` as the stable text format.
pub fn text_report(report: &RunReport, style: ReportStyle) -> String {
    let mut sink = TextSink::new();
    emit(report, style, &mut sink);
    sink.finish()
}

/// Renders `report` as a typed [`Record`] (the `"report"` section of the
/// JSON run document).
pub fn json_record(report: &RunReport, style: ReportStyle) -> Record {
    let mut sink = JsonSink::new();
    emit(report, style, &mut sink);
    sink.finish()
}

/// The stable line-oriented text format.
#[derive(Debug, Default)]
pub struct TextSink {
    out: String,
}

impl TextSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated text.
    pub fn finish(self) -> String {
        self.out
    }

    fn profile_node(&mut self, node: &ProfileNode, depth: usize, requests: f64) {
        let indent = "    ".repeat(depth);
        let _ = writeln!(
            self.out,
            "{indent}{:<14}: {:.0} cyc/req  {:.2} dram/req",
            node.label,
            node.cycles as f64 / requests,
            node.dram_accesses() as f64 / requests,
        );
        for child in &node.children {
            self.profile_node(child, depth + 1, requests);
        }
    }
}

impl ReportSink for TextSink {
    fn scalar(&mut self, _key: &str, label: &str, _value: Value, pretty: &str) {
        let _ = writeln!(self.out, "{label:<20}: {pretty}");
    }

    fn latency(&mut self, _key: &str, label: &str, s: &HistogramSummary, show_p50: bool) {
        if show_p50 {
            let _ = writeln!(
                self.out,
                "{label:<20}: mean {:.0}  p50 {}  p99 {} cycles",
                s.mean, s.p50, s.p99
            );
        } else {
            let _ = writeln!(
                self.out,
                "{label:<20}: mean {:.0}  p99 {} cycles",
                s.mean, s.p99
            );
        }
    }

    fn class(&mut self, class: TrafficClass, per_request: f64) {
        let _ = writeln!(self.out, "    {class:<14}: {per_request:.2}");
    }

    fn warning(&mut self, text: &str) {
        let _ = writeln!(self.out, "{:<20}: {text}", "WARNING");
    }

    fn profile(&mut self, node: &ProfileNode) {
        let _ = writeln!(
            self.out,
            "{:<20}: {} cycles over {} requests",
            "profile", node.cycles, node.count
        );
        let requests = node.count.max(1) as f64;
        for child in &node.children {
            self.profile_node(child, 1, requests);
        }
    }
}

/// Collects the traversal into a typed [`Record`].
///
/// Scalars and extras land in traversal order; the per-class breakdown is
/// gathered into a `"breakdown"` array and warnings into `"warnings"`,
/// both appended at the end so the document shape is fixed.
#[derive(Debug, Default)]
pub struct JsonSink {
    rec: Record,
    breakdown: Vec<Value>,
    warnings: Vec<Value>,
}

impl JsonSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// The accumulated record.
    pub fn finish(mut self) -> Record {
        self.rec.push("breakdown", Value::Array(self.breakdown));
        self.rec.push("warnings", Value::Array(self.warnings));
        self.rec
    }
}

impl ReportSink for JsonSink {
    fn scalar(&mut self, key: &str, _label: &str, value: Value, _pretty: &str) {
        self.rec.push(key, value);
    }

    fn latency(&mut self, key: &str, _label: &str, s: &HistogramSummary, _show_p50: bool) {
        self.rec.push(key, s.to_record());
    }

    fn class(&mut self, class: TrafficClass, per_request: f64) {
        self.breakdown.push(Value::from(
            Record::new()
                .with("class", class.to_string())
                .with("per_request", per_request),
        ));
    }

    fn warning(&mut self, text: &str) {
        self.warnings.push(Value::from(text));
    }

    fn extra(&mut self, key: &str, value: Value) {
        self.rec.push(key, value);
    }

    fn profile(&mut self, node: &ProfileNode) {
        self.rec.push("profile", node.to_record());
    }
}

/// Flattens the traversal into one wide CSV row.
///
/// Latency summaries expand to `<key>_mean`/`<key>_p50`/`<key>_p99`
/// columns, breakdown classes to `per_request[<class>]` columns; nested
/// extras (records, arrays) are embedded as compact JSON cells.
#[derive(Debug, Default)]
pub struct CsvSink {
    comments: Vec<(String, String)>,
    columns: Vec<(String, Value)>,
    warnings: Vec<String>,
}

impl CsvSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Prepends `# key: value` manifest comment lines to the output.
    pub fn with_comments(mut self, pairs: &[(String, String)]) -> Self {
        self.comments.extend(pairs.iter().cloned());
        self
    }

    /// The accumulated one-row CSV document.
    pub fn finish(mut self) -> String {
        if !self.warnings.is_empty() {
            let joined = self.warnings.join("; ");
            self.columns.push(("warnings".to_string(), Value::from(joined)));
        }
        let headers: Vec<&str> = self.columns.iter().map(|(k, _)| k.as_str()).collect();
        let mut table = CsvTable::new(&headers).comments(&self.comments);
        table.value_row(self.columns.iter().map(|(_, v)| v.clone()).collect());
        table.to_csv()
    }
}

impl ReportSink for CsvSink {
    fn scalar(&mut self, key: &str, _label: &str, value: Value, _pretty: &str) {
        self.columns.push((key.to_string(), value));
    }

    fn latency(&mut self, key: &str, _label: &str, s: &HistogramSummary, _show_p50: bool) {
        self.columns.push((format!("{key}_mean"), Value::from(s.mean)));
        self.columns.push((format!("{key}_p50"), Value::from(s.p50)));
        self.columns.push((format!("{key}_p99"), Value::from(s.p99)));
    }

    fn class(&mut self, class: TrafficClass, per_request: f64) {
        self.columns
            .push((format!("per_request[{class}]"), Value::from(per_request)));
    }

    fn warning(&mut self, text: &str) {
        self.warnings.push(text.to_string());
    }

    fn extra(&mut self, key: &str, value: Value) {
        self.columns.push((key.to_string(), value));
    }

    fn profile(&mut self, node: &ProfileNode) {
        // One cycle column per stage path, so totals can be checked in a
        // spreadsheet without JSON parsing.
        fn flatten(cols: &mut Vec<(String, Value)>, node: &ProfileNode, path: &str) {
            cols.push((format!("profile_cycles[{path}]"), Value::from(node.cycles)));
            cols.push((
                format!("profile_dram[{path}]"),
                Value::from(node.dram_accesses()),
            ));
            for child in &node.children {
                flatten(cols, child, &format!("{path}.{}", child.label));
            }
        }
        flatten(&mut self.columns, node, &node.label);
    }
}

/// One-line comparison between a baseline and a treatment report
/// ("A/B line"), used by examples.
pub fn compare_line(label: &str, base: &RunReport, treat: &RunReport) -> String {
    format!(
        "{label}: {:.1} → {:.1} Mrps ({:.2}x), {:.1} → {:.1} GB/s",
        base.throughput_mrps(),
        treat.throughput_mrps(),
        treat.throughput_mrps() / base.throughput_mrps().max(1e-9),
        base.memory_bandwidth_gbps(),
        treat.memory_bandwidth_gbps(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
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
        let text = text_report(&r, ReportStyle::default());
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
    fn brief_style_omits_details() {
        let r = report();
        let text = text_report(&r, ReportStyle::brief());
        assert!(!text.contains("dram read latency"));
        assert!(text.contains("throughput"));
    }

    #[test]
    fn json_record_carries_text_scalars() {
        let r = report();
        let rec = json_record(&r, ReportStyle::default());
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
    fn json_breakdown_matches_style_filter() {
        let r = report();
        let style = ReportStyle::default();
        let rec = json_record(&r, style);
        let Some(Value::Array(breakdown)) = rec.get("breakdown") else {
            panic!("breakdown missing");
        };
        let expected = r
            .accesses_per_request()
            .into_iter()
            .filter(|(_, v)| *v > style.min_class)
            .count();
        assert_eq!(breakdown.len(), expected);
    }

    #[test]
    fn csv_sink_emits_one_row() {
        let r = report();
        let mut sink = CsvSink::new().with_comments(&[("seed".into(), "1".into())]);
        emit(&r, ReportStyle::default(), &mut sink);
        let csv = sink.finish();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# seed: 1");
        assert!(lines[1].starts_with("workload,completed,throughput_mrps"));
        assert_eq!(lines.len(), 3, "comments + header + one data row");
        assert!(lines[1].contains("request_latency_p99"));
    }

    #[test]
    fn profile_reaches_every_sink_with_matching_totals() {
        let r = Experiment::new(ExperimentConfig::tiny_for_tests().profiler(), || {
            EchoWorkload::with_think(100)
        })
        .run_at_rate(1.0e6);
        let profile = r.profile.as_ref().expect("profiler enabled");

        let text = text_report(&r, ReportStyle::default());
        assert!(text.contains(&format!(
            "profile             : {} cycles over {} requests",
            profile.cycles, profile.count
        )));
        assert!(text.contains("nic_dma"));
        assert!(text.contains("service"));

        let rec = json_record(&r, ReportStyle::default());
        let Some(Value::Record(json_profile)) = rec.get("profile") else {
            panic!("profile missing from JSON");
        };
        assert_eq!(json_profile.get("cycles"), Some(&Value::U64(profile.cycles)));

        let mut sink = CsvSink::new();
        emit(&r, ReportStyle::default(), &mut sink);
        let csv = sink.finish();
        assert!(csv.contains("profile_cycles[request]"));
        assert!(csv.contains("profile_cycles[request.service.cpu_read]"));
        assert!(csv.contains(&profile.cycles.to_string()));
    }

    #[test]
    fn text_report_unchanged_without_profiler() {
        let r = report();
        assert!(r.profile.is_none());
        assert!(!text_report(&r, ReportStyle::default()).contains("profile"));
    }

    #[test]
    fn compare_line_formats_ratio() {
        let a = report();
        let b = report();
        let line = compare_line("echo", &a, &b);
        assert!(line.starts_with("echo: "));
        assert!(line.contains("1.00x"));
    }
}
