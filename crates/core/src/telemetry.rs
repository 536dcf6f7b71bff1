//! Run manifests and machine-readable run documents.
//!
//! The value layer ([`Value`]/[`Record`]/[`CsvTable`], re-exported from
//! `sweeper_sim::telemetry`) knows how to *write* JSON and CSV; this module
//! decides *what* every exported artifact contains:
//!
//! * a [`RunManifest`] — tool name and version, run profile, configuration
//!   summary, workload, seed, and (optionally) wall-clock duration — is
//!   attached to every export so an artifact found on disk identifies the
//!   run that produced it;
//! * document builders wrap a payload section together with its manifest
//!   and a `schema` tag (`sweeper.run-report/1`, `sweeper.timeseries/1`,
//!   `sweeper.load-sweep/1`);
//! * [`validate_run_document`] checks the run-report shape for the golden
//!   schema test; CI checks the artifacts it writes with Python.
//!
//! Wall-clock time never enters determinism-sensitive sections: run
//! reports carry no wall time, so `--jobs 1` and `--jobs N` produce
//! byte-identical JSON, and `wall_secs` lives only in the manifest where
//! callers opt in.

pub use sweeper_sim::telemetry::{csv_escape, CsvTable, Record, Value};

use sweeper_sim::check::CheckReport;
use sweeper_sim::span::{perfetto_events, OutlierSnapshot, SpanRing};

use crate::observe::TimeSeries;
use crate::report::json_record;
use crate::server::RunReport;

/// Schema tag of single-run report documents.
pub const RUN_REPORT_SCHEMA: &str = "sweeper.run-report/1";
/// Schema tag of time-series documents.
pub const TIMESERIES_SCHEMA: &str = "sweeper.timeseries/1";
/// Schema tag of load-sweep documents.
pub const LOADSWEEP_SCHEMA: &str = "sweeper.load-sweep/1";
/// Schema tag of figure-table sidecar documents.
pub const FIGURE_TABLE_SCHEMA: &str = "sweeper.figure-table/1";
/// Schema tag of Chrome-trace-event (Perfetto) span exports.
pub const PERFETTO_SCHEMA: &str = "sweeper.perfetto-trace/1";
/// Schema tag of flight-recorder outlier snapshots.
pub const OUTLIER_SCHEMA: &str = "sweeper.outlier/1";
/// Schema tag of correctness-harness (`sweeper check`) documents.
pub const CHECK_SCHEMA: &str = "sweeper.check/1";

/// Export format selected by the CLI's `--format`, for single runs and
/// figures alike.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OutputFormat {
    /// Human-readable text (the default).
    #[default]
    Text,
    /// A schema-tagged JSON document.
    Json,
    /// CSV with `# key: value` manifest comment lines.
    Csv,
}

impl std::str::FromStr for OutputFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "text" => Ok(Self::Text),
            "json" => Ok(Self::Json),
            "csv" => Ok(Self::Csv),
            other => Err(format!(
                "unknown format '{other}' (expected text, json, or csv)"
            )),
        }
    }
}

impl std::fmt::Display for OutputFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::Text => "text",
            Self::Json => "json",
            Self::Csv => "csv",
        })
    }
}

/// The tool version stamped into every manifest: the crate version, with a
/// `+<describe>` suffix when the build provided one via the
/// `SWEEPER_GIT_DESCRIBE` compile-time environment variable (the
/// git-describe convention).
pub fn tool_version() -> String {
    match option_env!("SWEEPER_GIT_DESCRIBE") {
        Some(desc) if !desc.is_empty() => {
            format!("{}+{desc}", env!("CARGO_PKG_VERSION"))
        }
        _ => env!("CARGO_PKG_VERSION").to_string(),
    }
}

/// Identifying metadata attached to every exported artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct RunManifest {
    /// Producing tool, always `"sweeper"` for this workspace.
    pub tool: String,
    /// Tool version (see [`tool_version`]).
    pub version: String,
    /// Run-length profile name (`full` / `fast` / `smoke`), when known.
    pub profile: Option<String>,
    /// Configuration summary (`ExperimentConfig::summary`-style), when
    /// known.
    pub config: Option<String>,
    /// Workload name, when known.
    pub workload: Option<String>,
    /// RNG seed, when known.
    pub seed: Option<u64>,
    /// The run's canonical scenario text
    /// ([`Scenario::to_text`](crate::scenario::Scenario::to_text)), when the
    /// artifact is one scenario's run: `sweeper run --scenario` on it
    /// reproduces the run.
    pub scenario: Option<String>,
    /// Host wall-clock duration of the run in seconds. Leave `None` in
    /// documents that must be byte-reproducible.
    pub wall_secs: Option<f64>,
}

impl RunManifest {
    /// A manifest carrying only the tool identity.
    pub fn new() -> Self {
        Self {
            tool: "sweeper".to_string(),
            version: tool_version(),
            profile: None,
            config: None,
            workload: None,
            seed: None,
            scenario: None,
            wall_secs: None,
        }
    }

    /// Sets the run-length profile name.
    pub fn profile(mut self, profile: impl Into<String>) -> Self {
        self.profile = Some(profile.into());
        self
    }

    /// Sets the configuration summary.
    pub fn config(mut self, config: impl Into<String>) -> Self {
        self.config = Some(config.into());
        self
    }

    /// Sets the workload name.
    pub fn workload(mut self, workload: impl Into<String>) -> Self {
        self.workload = Some(workload.into());
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Sets the canonical scenario text.
    pub fn scenario(mut self, text: impl Into<String>) -> Self {
        self.scenario = Some(text.into());
        self
    }

    /// Sets the wall-clock duration. Documents carrying it are not
    /// byte-reproducible across hosts; omit it where determinism tests
    /// compare bytes.
    pub fn wall_secs(mut self, secs: f64) -> Self {
        self.wall_secs = Some(secs);
        self
    }

    /// Structured export; optional fields are omitted rather than null.
    pub fn to_record(&self) -> Record {
        let mut rec = Record::new()
            .with("tool", self.tool.as_str())
            .with("version", self.version.as_str());
        if let Some(p) = &self.profile {
            rec.push("profile", p.as_str());
        }
        if let Some(c) = &self.config {
            rec.push("config", c.as_str());
        }
        if let Some(w) = &self.workload {
            rec.push("workload", w.as_str());
        }
        if let Some(s) = self.seed {
            rec.push("seed", s);
        }
        if let Some(s) = &self.scenario {
            rec.push("scenario", s.as_str());
        }
        if let Some(w) = self.wall_secs {
            rec.push("wall_secs", w);
        }
        rec
    }

    /// The manifest as `# key: value` CSV comment pairs, same field order
    /// as [`RunManifest::to_record`]. A multi-line value (the scenario)
    /// gives one pair per line, so `# scenario: ` lines read back as a
    /// scenario file.
    pub fn to_comments(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        for (k, v) in self.to_record().fields() {
            let cell = v.to_cell();
            if cell.contains('\n') {
                out.extend(cell.lines().map(|line| (k.clone(), line.to_string())));
            } else {
                out.push((k.clone(), cell));
            }
        }
        out
    }
}

impl Default for RunManifest {
    fn default() -> Self {
        Self::new()
    }
}

/// Wraps a payload section with its schema tag and manifest — the shape
/// every JSON artifact in the workspace shares.
pub fn document(
    schema: &str,
    manifest: &RunManifest,
    section: &str,
    body: impl Into<Value>,
) -> Record {
    Record::new()
        .with("schema", schema)
        .with("manifest", manifest.to_record())
        .with(section, body)
}

/// The JSON document for one run report.
pub fn run_document(report: &RunReport, manifest: &RunManifest) -> Record {
    document(RUN_REPORT_SCHEMA, manifest, "report", json_record(report))
}

/// The JSON document for one run's sampled time series.
pub fn timeseries_document(timeseries: &TimeSeries, manifest: &RunManifest) -> Record {
    document(
        TIMESERIES_SCHEMA,
        manifest,
        "timeseries",
        timeseries.to_record(),
    )
}

/// The Chrome-trace-event JSON document for one run's retained spans.
///
/// The document is the Trace Event Format's "JSON object" flavor: a
/// top-level `traceEvents` array of `ph: "X"` complete events, which
/// `ui.perfetto.dev` and `chrome://tracing` open directly; the schema tag
/// and manifest ride alongside as ignored extra keys.
pub fn perfetto_document(spans: &SpanRing, manifest: &RunManifest) -> Record {
    Record::new()
        .with("schema", PERFETTO_SCHEMA)
        .with("manifest", manifest.to_record())
        .with("displayTimeUnit", "ns")
        .with("spans_recorded", spans.recorded())
        .with("spans_retained", spans.len() as u64)
        .with(
            "traceEvents",
            Value::Array(perfetto_events(&spans.events())),
        )
}

/// The JSON document for one flight-recorder outlier snapshot
/// (`results/outliers/<n>.json`).
pub fn outlier_document(snapshot: &OutlierSnapshot, manifest: &RunManifest) -> Record {
    document(OUTLIER_SCHEMA, manifest, "outlier", snapshot.to_record())
}

/// The JSON document for a `sweeper check` validation sweep: one
/// [`check_figure_record`] per figure.
pub fn check_document(checks: Vec<Value>, manifest: &RunManifest) -> Record {
    document(CHECK_SCHEMA, manifest, "checks", checks)
}

/// One figure's record in a [`check_document`], from the ledger summed over
/// its `points` points: events, walks, violation counts, the labels of the
/// failing points, and the summed ledger's label-prefixed details (at most
/// [`MAX_DETAILS`](sweeper_sim::check::MAX_DETAILS)), so a failing document
/// names what broke.
pub fn check_figure_record(
    figure: &str,
    points: usize,
    sum: &CheckReport,
    failed_points: &[String],
) -> Record {
    let strings = |v: &[String]| {
        v.iter()
            .map(|s| Value::from(s.as_str()))
            .collect::<Vec<_>>()
    };
    Record::new()
        .with("figure", figure)
        .with("points", points as u64)
        .with("events", sum.events)
        .with("walks", sum.walks)
        .with("violations_total", sum.total_violations())
        .with("violations", sum.violations_record())
        .with("failed_points", strings(failed_points))
        .with("details", strings(&sum.details))
}

fn expect_str(rec: &Record, key: &str, ctx: &str) -> Result<(), String> {
    match rec.get(key) {
        Some(Value::Str(_)) => Ok(()),
        _ => Err(format!("{ctx} missing string '{key}'")),
    }
}

fn expect_u64(rec: &Record, key: &str, ctx: &str) -> Result<(), String> {
    match rec.get(key) {
        Some(Value::U64(_)) => Ok(()),
        _ => Err(format!("{ctx} missing integer '{key}'")),
    }
}

fn expect_f64(rec: &Record, key: &str, ctx: &str) -> Result<(), String> {
    match rec.get(key) {
        Some(Value::F64(_)) => Ok(()),
        _ => Err(format!("{ctx} missing float '{key}'")),
    }
}

fn expect_record<'a>(rec: &'a Record, key: &str, ctx: &str) -> Result<&'a Record, String> {
    match rec.get(key) {
        Some(Value::Record(inner)) => Ok(inner),
        _ => Err(format!("{ctx} missing record '{key}'")),
    }
}

fn expect_array(rec: &Record, key: &str, ctx: &str) -> Result<(), String> {
    match rec.get(key) {
        Some(Value::Array(_)) => Ok(()),
        _ => Err(format!("{ctx} missing array '{key}'")),
    }
}

fn check_latency_summary(rec: &Record, key: &str) -> Result<(), String> {
    let summary = expect_record(rec, key, "report")?;
    let ctx = format!("report.{key}");
    expect_u64(summary, "count", &ctx)?;
    expect_f64(summary, "mean", &ctx)?;
    for p in ["p50", "p90", "p95", "p99", "p999", "max"] {
        expect_u64(summary, p, &ctx)?;
    }
    Ok(())
}

/// Validates the shape of a run-report document (see [`run_document`]).
///
/// Checks the schema tag, manifest identity fields, and the presence and
/// type of every scalar, latency summary, and section the text report
/// derives from. The golden-schema test and CI artifact validation rely on
/// this being strict about names: a renamed field is a schema break.
pub fn validate_run_document(doc: &Record) -> Result<(), String> {
    match doc.get("schema") {
        Some(Value::Str(s)) if s == RUN_REPORT_SCHEMA => {}
        Some(Value::Str(s)) => {
            return Err(format!("schema '{s}' is not '{RUN_REPORT_SCHEMA}'"));
        }
        _ => return Err("document missing string 'schema'".to_string()),
    }
    let manifest = expect_record(doc, "manifest", "document")?;
    expect_str(manifest, "tool", "manifest")?;
    expect_str(manifest, "version", "manifest")?;

    let report = expect_record(doc, "report", "document")?;
    expect_str(report, "workload", "report")?;
    for key in [
        "completed",
        "offered",
        "dropped",
        "elapsed_cycles",
        "background_iterations",
    ] {
        expect_u64(report, key, "report")?;
    }
    for key in [
        "throughput_mrps",
        "goodput_ratio",
        "drop_rate",
        "memory_bandwidth_gbps",
        "accesses_per_request",
    ] {
        expect_f64(report, key, "report")?;
    }
    if !matches!(report.get("timed_out"), Some(Value::Bool(_))) {
        return Err("report missing bool 'timed_out'".to_string());
    }
    check_latency_summary(report, "request_latency")?;
    check_latency_summary(report, "service_time")?;
    let mem = expect_record(report, "mem", "report")?;
    expect_record(mem, "dram_reads", "report.mem")?;
    expect_record(mem, "dram_writes", "report.mem")?;
    expect_u64(mem, "block_accesses", "report.mem")?;
    expect_array(report, "breakdown", "report")?;
    expect_array(report, "warnings", "report")?;
    expect_array(report, "channel_transfers", "report")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{Experiment, ExperimentConfig};
    use crate::workload::EchoWorkload;
    use sweeper_sim::check::ViolationKind;

    #[test]
    fn check_figure_record_names_what_broke() {
        let mut point = CheckReport {
            walks: 3,
            events: 40,
            ..CheckReport::default()
        };
        point.counts[ViolationKind::SweptLiveRx as usize] = 1;
        point
            .details
            .push("1KB DDIO 2: swept live RX block 0x40".to_string());
        let mut sum = CheckReport::default();
        sum.merge(&CheckReport::default());
        sum.merge(&point);
        let rec = check_figure_record("fig1", 2, &sum, &["1KB DDIO 2".to_string()]);
        let strs = |v: &[&str]| Value::Array(v.iter().map(|s| Value::from(*s)).collect());
        assert_eq!(rec.get("points"), Some(&Value::U64(2)));
        assert_eq!(rec.get("walks"), Some(&Value::U64(3)));
        assert_eq!(rec.get("events"), Some(&Value::U64(40)));
        assert_eq!(rec.get("violations_total"), Some(&Value::U64(1)));
        assert_eq!(
            rec.get("violations"),
            Some(&Value::from(Record::new().with("swept_live_rx", 1u64)))
        );
        assert_eq!(rec.get("failed_points"), Some(&strs(&["1KB DDIO 2"])));
        assert_eq!(
            rec.get("details"),
            Some(&strs(&["1KB DDIO 2: swept live RX block 0x40"]))
        );
        let passing = check_figure_record("fig1", 2, &CheckReport::default(), &[]);
        assert_eq!(passing.get("details"), Some(&strs(&[])));
    }

    /// Validates the shape of a Perfetto trace document (see
    /// [`perfetto_document`]): schema tag, manifest identity, and that every
    /// trace event carries the Chrome Trace Event Format's required fields.
    fn validate_perfetto_document(doc: &Record) -> Result<(), String> {
        match doc.get("schema") {
            Some(Value::Str(s)) if s == PERFETTO_SCHEMA => {}
            Some(Value::Str(s)) => {
                return Err(format!("schema '{s}' is not '{PERFETTO_SCHEMA}'"));
            }
            _ => return Err("document missing string 'schema'".to_string()),
        }
        let manifest = expect_record(doc, "manifest", "document")?;
        expect_str(manifest, "tool", "manifest")?;
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            return Err("document missing array 'traceEvents'".to_string());
        };
        for (i, event) in events.iter().enumerate() {
            let Value::Record(event) = event else {
                return Err(format!("traceEvents[{i}] is not a record"));
            };
            let ctx = format!("traceEvents[{i}]");
            expect_str(event, "name", &ctx)?;
            expect_str(event, "ph", &ctx)?;
            expect_f64(event, "ts", &ctx)?;
            expect_f64(event, "dur", &ctx)?;
            expect_u64(event, "pid", &ctx)?;
            expect_u64(event, "tid", &ctx)?;
        }
        Ok(())
    }

    /// Validates the shape of a flight-recorder outlier document (see
    /// [`outlier_document`]).
    fn validate_outlier_document(doc: &Record) -> Result<(), String> {
        match doc.get("schema") {
            Some(Value::Str(s)) if s == OUTLIER_SCHEMA => {}
            Some(Value::Str(s)) => {
                return Err(format!("schema '{s}' is not '{OUTLIER_SCHEMA}'"));
            }
            _ => return Err("document missing string 'schema'".to_string()),
        }
        let manifest = expect_record(doc, "manifest", "document")?;
        expect_str(manifest, "tool", "manifest")?;
        let outlier = expect_record(doc, "outlier", "document")?;
        for key in [
            "seq",
            "trace",
            "core",
            "at_cycles",
            "latency_cycles",
            "threshold_cycles",
        ] {
            expect_u64(outlier, key, "outlier")?;
        }
        expect_f64(outlier, "quantile", "outlier")?;
        expect_array(outlier, "spans", "outlier")?;
        Ok(())
    }

    fn report() -> RunReport {
        Experiment::new(ExperimentConfig::tiny_for_tests(), || {
            EchoWorkload::with_think(100)
        })
        .run_at_rate(1.0e6)
    }

    #[test]
    fn manifest_skips_unset_fields() {
        let rec = RunManifest::new().to_record();
        assert_eq!(rec.len(), 2);
        assert_eq!(rec.get("tool"), Some(&Value::Str("sweeper".into())));
        assert!(rec.get("wall_secs").is_none());

        let full = RunManifest::new()
            .profile("smoke")
            .config("ddio2 rx=1024")
            .workload("echo")
            .seed(7)
            .wall_secs(1.25)
            .to_record();
        assert_eq!(full.len(), 7);
        assert_eq!(full.get("seed"), Some(&Value::U64(7)));
    }

    #[test]
    fn manifest_comments_mirror_record() {
        let comments = RunManifest::new().profile("fast").seed(3).to_comments();
        assert_eq!(
            comments,
            vec![
                ("tool".to_string(), "sweeper".to_string()),
                ("version".to_string(), tool_version()),
                ("profile".to_string(), "fast".to_string()),
                ("seed".to_string(), "3".to_string()),
            ]
        );
        let scenario = crate::scenario::Scenario::default();
        let comments = RunManifest::new()
            .scenario(scenario.to_text())
            .to_comments();
        let file: String = comments
            .iter()
            .filter(|(k, _)| k == "scenario")
            .map(|(_, line)| format!("{line}\n"))
            .collect();
        assert_eq!(file, scenario.to_text(), "one comment per scenario line");
    }

    #[test]
    fn run_document_validates() {
        let doc = run_document(&report(), &RunManifest::new().workload("echo").seed(1));
        validate_run_document(&doc).expect("document must validate");
    }

    #[test]
    fn validation_rejects_missing_sections() {
        let manifest = RunManifest::new();
        let doc = Record::new().with("schema", RUN_REPORT_SCHEMA);
        assert!(validate_run_document(&doc)
            .unwrap_err()
            .contains("manifest"));

        let doc = Record::new()
            .with("schema", "sweeper.other/1")
            .with("manifest", manifest.to_record());
        assert!(validate_run_document(&doc).unwrap_err().contains("schema"));

        let doc = Record::new()
            .with("schema", RUN_REPORT_SCHEMA)
            .with("manifest", manifest.to_record())
            .with("report", Record::new().with("workload", "echo"));
        assert!(validate_run_document(&doc)
            .unwrap_err()
            .contains("completed"));
    }

    #[test]
    fn timeseries_document_wraps_the_series() {
        let mut cfg = ExperimentConfig::tiny_for_tests().sampling(100_000);
        cfg = cfg.seed(9);
        let r = Experiment::new(cfg, || EchoWorkload::with_think(100)).run_at_rate(1.0e6);
        let ts = r.timeseries.expect("sampling enabled");
        let doc = timeseries_document(&ts, &RunManifest::new().seed(9));
        assert_eq!(
            doc.get("schema"),
            Some(&Value::Str(TIMESERIES_SCHEMA.into()))
        );
        let Some(Value::Record(body)) = doc.get("timeseries") else {
            panic!("missing timeseries section");
        };
        assert_eq!(body.get("every_cycles"), Some(&Value::U64(100_000)));
    }

    #[test]
    fn perfetto_document_validates_and_parses() {
        let cfg = ExperimentConfig::tiny_for_tests().spans(4096);
        let r = Experiment::new(cfg, || EchoWorkload::with_think(100)).run_at_rate(1.0e6);
        let spans = r.spans.expect("spans enabled");
        let doc = perfetto_document(&spans, &RunManifest::new().workload("echo"));
        validate_perfetto_document(&doc).expect("perfetto document must validate");
        let Some(Value::Array(events)) = doc.get("traceEvents") else {
            panic!("traceEvents missing");
        };
        assert_eq!(events.len(), spans.len());
        // The JSON writer must produce strict JSON (python -m json.tool in
        // CI re-checks this end to end).
        assert!(doc.to_json_pretty().starts_with("{\n  \"schema\""));
    }

    #[test]
    fn outlier_document_validates() {
        use crate::observe::FlightRecorderConfig;
        let cfg = ExperimentConfig::tiny_for_tests().flight(FlightRecorderConfig {
            quantile: 0.9,
            min_samples: 100,
            max_snapshots: 2,
        });
        let r = Experiment::new(cfg, || EchoWorkload::with_think(100)).run_at_rate(1.0e6);
        let outliers = r.outliers.expect("flight recorder enabled");
        assert!(!outliers.is_empty());
        let doc = outlier_document(&outliers[0], &RunManifest::new().seed(1));
        validate_outlier_document(&doc).expect("outlier document must validate");
    }

    #[test]
    fn run_document_with_profile_still_validates() {
        let cfg = ExperimentConfig::tiny_for_tests().profiler();
        let r = Experiment::new(cfg, || EchoWorkload::with_think(100)).run_at_rate(1.0e6);
        let doc = run_document(&r, &RunManifest::new());
        validate_run_document(&doc).expect("profile is an additive field");
        let Some(Value::Record(report)) = doc.get("report") else {
            panic!("report missing");
        };
        assert!(matches!(report.get("profile"), Some(Value::Record(_))));
    }

    #[test]
    fn tool_version_carries_crate_version() {
        assert!(tool_version().starts_with(env!("CARGO_PKG_VERSION")));
    }

    #[test]
    fn output_format_round_trips_through_strings() {
        for fmt in [OutputFormat::Text, OutputFormat::Json, OutputFormat::Csv] {
            assert_eq!(fmt.to_string().parse::<OutputFormat>(), Ok(fmt));
        }
        assert!("yaml".parse::<OutputFormat>().is_err());
        assert_eq!(OutputFormat::default(), OutputFormat::Text);
    }
}
