//! Shared driver code for the benchmark harness that regenerates every
//! table and figure of *"Patching up Network Data Leaks with Sweeper"*.
//!
//! Each figure is a [`figs::Figure`] in the shared registry: it enumerates
//! its sweep as self-describing
//! [`ExperimentPoint`](sweeper_core::fleet::ExperimentPoint)s and renders
//! the collected outcomes into the paper's tables, writing each one to
//! `results/<name>.csv` plus a schema-tagged `results/<name>.json` sidecar
//! (the directory is created on demand). The `sweeper` CLI's
//! `figure <name>` command (and `figure all`) dispatches through
//! [`run_figure`], so every figure inherits:
//!
//! * **parallelism** — points fan out across a
//!   [`Fleet`](sweeper_core::fleet::Fleet) worker pool (`--jobs N`,
//!   default = available parallelism) with identical results for any
//!   worker count,
//! * **run profiles** — `--profile full|fast|smoke` parsed once into a
//!   typed [`RunProfile`],
//! * **output formats** — `--format text|json|csv` selects how emitted
//!   tables print to stdout; the on-disk artifacts are written regardless,
//! * **timing** — per-point wall time on stderr and per-figure totals.
//!
//! [`perf`] holds the simulator-throughput benchmark behind `sweeper perf`.

pub mod figs;
pub mod perf;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};

use sweeper_core::experiment::{Experiment, ExperimentConfig};
use sweeper_core::fleet::Fleet;
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::{Scenario, ScenarioWorkload};
use sweeper_core::server::{RunOptions, RunReport, SweeperMode};
use sweeper_core::telemetry::{
    document, CsvTable, OutputFormat, Record, RunManifest, Value, FIGURE_TABLE_SCHEMA,
};
use sweeper_sim::hierarchy::InjectionPolicy;
use sweeper_sim::stats::TrafficClass;
use sweeper_workloads::kvs::{KvsConfig, MicaKvs, HEADER_BYTES};
use sweeper_workloads::l3fwd::{L3Forwarder, L3fwdConfig};
use sweeper_workloads::synthetic::{Synthetic, SyntheticConfig};

/// Everything a figure needs to execute: the run-length profile and the
/// worker fleet. Parsed once from the CLI flags and threaded through the
/// registry.
#[derive(Debug, Clone)]
pub struct FigContext {
    /// Run-length profile for every experiment of the figure.
    pub profile: RunProfile,
    /// Worker pool the figure's points fan out across.
    pub fleet: Fleet,
    /// Stdout format for emitted tables (`--format`). The CSV and JSON
    /// artifacts under `results/` are written for every format.
    pub format: OutputFormat,
}

/// Runs one registered figure, `table1`, or `all` (table1, then the
/// registry in order) under `ctx`. The entry point behind the CLI's
/// `figure` command.
///
/// # Errors
///
/// Returns a message listing the valid names when `name` is none of them.
pub fn run_figure(name: &str, ctx: &FigContext) -> Result<(), String> {
    set_stdout_format(ctx.format);
    if name == "all" {
        let t = std::time::Instant::now();
        let names = std::iter::once("table1").chain(figs::registry().iter().map(|f| f.name()));
        for name in names {
            eprintln!("\n##### {name} #####");
            run_figure(name, ctx)?;
        }
        eprintln!("\nComplete evaluation finished in {:.1?}", t.elapsed());
        return Ok(());
    }
    if name == "table1" {
        figs::table1::run();
        return Ok(());
    }
    let figure = figs::find(name).ok_or_else(|| {
        format!(
            "unknown figure '{name}' (available: all, table1, {})",
            figs::registry()
                .iter()
                .map(|f| f.name())
                .collect::<Vec<_>>()
                .join(", ")
        )
    })?;
    let t = std::time::Instant::now();
    eprintln!(
        "[{}] {} — {} points, {} workers, profile {}",
        figure.name(),
        figure.description(),
        figure.points(ctx.profile).len(),
        ctx.fleet.jobs(),
        ctx.profile,
    );
    figure.run(ctx);
    eprintln!("[{}] done in {:.1?}", figure.name(), t.elapsed());
    Ok(())
}

/// Run lengths for Poisson load sweeps under a [`RunProfile`].
///
/// The warmup must cycle each core's RX ring at least once so that
/// steady-state buffer churn — the phenomenon under study — is in effect
/// when measurement starts; [`ring_warmup`] computes that floor and the
/// experiment builders apply it.
pub fn figure_run_options(profile: RunProfile) -> RunOptions {
    match profile {
        RunProfile::Full => RunOptions {
            warmup_requests: 10_000,
            measure_requests: 30_000,
            max_cycles: 120_000_000_000,
            min_warmup_cycles: 0,
            min_measure_cycles: 0,
        },
        RunProfile::Fast => RunOptions {
            warmup_requests: 4_000,
            measure_requests: 8_000,
            max_cycles: 60_000_000_000,
            min_warmup_cycles: 0,
            min_measure_cycles: 0,
        },
        RunProfile::Smoke => RunOptions {
            warmup_requests: 1_000,
            measure_requests: 2_000,
            max_cycles: 30_000_000_000,
            min_warmup_cycles: 0,
            min_measure_cycles: 0,
        },
    }
}

/// Warmup floor guaranteeing ≥1.2 ring wraps on every core.
pub fn ring_warmup(active_cores: u16, rx_entries: usize) -> u64 {
    (active_cores as u64 * rx_entries as u64 * 12) / 10
}

/// Run lengths whose warmup fully wraps the RX rings (used by the
/// keep-queued L3fwd scenarios and any deep-ring configuration).
///
/// The ring-wrap floor is physics, not budget, so it applies under every
/// profile — a smoke run of a deep-ring scenario is still a *valid* (if
/// noisy) run.
pub fn wrapped_run_options(
    profile: RunProfile,
    active_cores: u16,
    rx_entries: usize,
) -> RunOptions {
    let base = figure_run_options(profile);
    RunOptions {
        warmup_requests: base
            .warmup_requests
            .max(ring_warmup(active_cores, rx_entries)),
        ..base
    }
}

/// A named system configuration of the paper's baselines sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystemPoint {
    /// Injection policy.
    pub policy: InjectionPolicy,
    /// DDIO ways (ignored for DMA/Ideal).
    pub ddio_ways: u32,
    /// Sweeper on/off.
    pub sweeper: SweeperMode,
}

impl SystemPoint {
    /// Conventional DMA.
    pub fn dma() -> Self {
        Self {
            policy: InjectionPolicy::Dma,
            ddio_ways: 2,
            sweeper: SweeperMode::Disabled,
        }
    }

    /// DDIO with `ways` LLC ways.
    pub fn ddio(ways: u32) -> Self {
        Self {
            policy: InjectionPolicy::Ddio,
            ddio_ways: ways,
            sweeper: SweeperMode::Disabled,
        }
    }

    /// DDIO with `ways` LLC ways plus Sweeper.
    pub fn ddio_sweeper(ways: u32) -> Self {
        Self {
            policy: InjectionPolicy::Ddio,
            ddio_ways: ways,
            sweeper: SweeperMode::Enabled,
        }
    }

    /// The unrealistic infinite network cache.
    pub fn ideal() -> Self {
        Self {
            policy: InjectionPolicy::Ideal,
            ddio_ways: 2,
            sweeper: SweeperMode::Disabled,
        }
    }

    /// Legend label matching the paper's figures.
    pub fn label(&self) -> String {
        match self.policy {
            InjectionPolicy::Dma => "DMA".to_string(),
            InjectionPolicy::Ideal => "Ideal DDIO".to_string(),
            InjectionPolicy::Ddio => {
                format!("DDIO {} Ways{}", self.ddio_ways, self.sweeper.suffix())
            }
        }
    }

    /// Applies this point to an experiment configuration.
    pub fn apply(&self, cfg: ExperimentConfig) -> ExperimentConfig {
        cfg.injection(self.policy)
            .ddio_ways(self.ddio_ways)
            .sweeper(self.sweeper)
    }
}

/// Builds a KVS experiment at paper scale.
///
/// `item_bytes` is the KVS value size (request packets carry
/// `item + header`); `rx_buffers` the per-core ring depth.
pub fn kvs_experiment(
    profile: RunProfile,
    point: SystemPoint,
    item_bytes: u64,
    rx_buffers: usize,
    channels: usize,
) -> Experiment {
    let kvs_cfg = KvsConfig::paper_default().with_item_bytes(item_bytes);
    point
        .apply(
            ExperimentConfig::paper_default()
                .rx_buffers_per_core(rx_buffers)
                .packet_bytes(item_bytes + HEADER_BYTES)
                .channels(channels)
                .run_options(wrapped_run_options(profile, 24, rx_buffers)),
        )
        .experiment(move || MicaKvs::new(kvs_cfg))
}

/// The experiment a [`Scenario`] describes: `cfg` (the scenario's
/// [`Scenario::to_config`] plus the caller's run lengths and
/// instrumentation) driven by the workload the scenario names. KVS items
/// fill the packet after the request header; `zero_copy` makes the L3
/// forwarder transmit in place.
pub fn scenario_experiment(cfg: ExperimentConfig, scenario: &Scenario, zero_copy: bool) -> Experiment {
    match scenario.workload {
        ScenarioWorkload::Kvs => {
            let item = scenario.packet.saturating_sub(HEADER_BYTES).max(64);
            let kvs = KvsConfig::paper_default().with_item_bytes(item);
            Experiment::new(cfg, move || MicaKvs::new(kvs))
        }
        ScenarioWorkload::L3fwd => {
            let mut l3 = L3fwdConfig::l2_resident();
            if zero_copy {
                l3 = l3.with_zero_copy();
            }
            Experiment::new(cfg, move || L3Forwarder::new(l3))
        }
        ScenarioWorkload::Synthetic => {
            Experiment::new(cfg, || Synthetic::new(SyntheticConfig::balanced()))
        }
    }
}

/// Builds an L3fwd experiment at paper scale (copy-out transmit path,
/// L2-resident 16 k-rule table as in §IV-B).
pub fn l3fwd_experiment(profile: RunProfile, point: SystemPoint, rx_buffers: usize) -> Experiment {
    point
        .apply(
            ExperimentConfig::paper_default()
                .rx_buffers_per_core(rx_buffers)
                .packet_bytes(1024)
                .run_options(wrapped_run_options(profile, 24, rx_buffers)),
        )
        .experiment(|| L3Forwarder::new(L3fwdConfig::l2_resident()))
}

/// One row of a memory-access-per-request breakdown (Figures 1c/2c/5c/7b).
pub fn breakdown_row(report: &RunReport) -> Vec<(TrafficClass, f64)> {
    report.accesses_per_request()
}

/// Formats a breakdown as the paper's stacked-bar data.
pub fn format_breakdown(report: &RunReport) -> String {
    let mut out = String::new();
    for (class, v) in report.accesses_per_request() {
        if v >= 0.005 {
            let _ = write!(out, "{class}={v:.2} ");
        }
    }
    let _ = write!(out, "| total={:.1}", report.total_accesses_per_request());
    out
}

/// Stdout format applied by [`Table::emit`], set once per process by
/// [`run_figure`] from the parsed `--format` flag. A process-wide knob
/// (rather than a parameter) so the figure implementations keep calling
/// `table.emit(name)` without threading the context through every
/// `render`.
static STDOUT_FORMAT: AtomicU8 = AtomicU8::new(0);

/// Sets the stdout format for every subsequent [`Table::emit`].
pub fn set_stdout_format(format: OutputFormat) {
    let v = match format {
        OutputFormat::Text => 0,
        OutputFormat::Json => 1,
        OutputFormat::Csv => 2,
    };
    STDOUT_FORMAT.store(v, Ordering::Relaxed);
}

fn stdout_format() -> OutputFormat {
    match STDOUT_FORMAT.load(Ordering::Relaxed) {
        1 => OutputFormat::Json,
        2 => OutputFormat::Csv,
        _ => OutputFormat::Text,
    }
}

/// Simple fixed-width table printer for the figures.
#[derive(Debug)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: String,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            title: title.to_string(),
        }
    }

    /// Appends a row (must match the header count).
    ///
    /// # Panics
    ///
    /// Panics if the cell count differs from the header count.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "\n=== {} ===", self.title);
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let _ = writeln!(out, "{}", fmt_row(&self.headers, &widths));
        let _ = writeln!(
            out,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", fmt_row(row, &widths));
        }
        out
    }

    /// The table as manifest-commented CSV in the shared dialect.
    pub fn to_csv(&self, name: &str) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut csv = CsvTable::new(&headers)
            .comments(&RunManifest::new().to_comments())
            .comment("artifact", name)
            .comment("title", self.title.as_str());
        for row in &self.rows {
            csv.row(row.clone());
        }
        csv.to_csv()
    }

    /// The table as a schema-tagged JSON document — the `.json` sidecar
    /// written next to each `.csv`.
    pub fn to_document(&self, name: &str) -> Record {
        let headers: Vec<Value> = self.headers.iter().map(|h| Value::from(h.as_str())).collect();
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|row| {
                Value::from(
                    row.iter()
                        .map(|c| Value::from(c.as_str()))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let body = Record::new()
            .with("name", name)
            .with("title", self.title.as_str())
            .with("headers", headers)
            .with("rows", rows);
        document(FIGURE_TABLE_SCHEMA, &RunManifest::new(), "table", body)
    }

    /// Writes `results/<name>.csv` and its `results/<name>.json` sidecar,
    /// creating `results/` if needed.
    pub fn write_artifacts(&self, name: &str) -> std::io::Result<()> {
        let dir = PathBuf::from("results");
        std::fs::create_dir_all(&dir)?;
        std::fs::write(dir.join(format!("{name}.csv")), self.to_csv(name))?;
        let json = format!("{}\n", self.to_document(name).to_json_pretty());
        std::fs::write(dir.join(format!("{name}.json")), json)?;
        Ok(())
    }

    /// Prints the table to stdout (in the process-wide `--format`) and
    /// writes the `results/` artifacts. Write failures are reported on
    /// stderr rather than silently dropped.
    pub fn emit(&self, name: &str) {
        match stdout_format() {
            OutputFormat::Text => println!("{}", self.render()),
            OutputFormat::Json => println!("{}", self.to_document(name).to_json_pretty()),
            OutputFormat::Csv => print!("{}", self.to_csv(name)),
        }
        if let Err(e) = self.write_artifacts(name) {
            eprintln!("warning: could not write results/{name}.csv|json: {e}");
        }
    }
}

/// Convenience: formats a float with two decimals.
pub fn f1(v: f64) -> String {
    format!("{v:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn system_point_labels_match_paper_legends() {
        assert_eq!(SystemPoint::dma().label(), "DMA");
        assert_eq!(SystemPoint::ddio(4).label(), "DDIO 4 Ways");
        assert_eq!(
            SystemPoint::ddio_sweeper(2).label(),
            "DDIO 2 Ways + Sweeper"
        );
        assert_eq!(SystemPoint::ideal().label(), "Ideal DDIO");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4444".into()]);
        let s = t.render();
        assert!(s.contains("demo"));
        assert!(s.contains("long-header"));
        assert!(s.lines().count() >= 5);
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("demo", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn run_options_are_nontrivial_and_ordered() {
        let full = figure_run_options(RunProfile::Full);
        assert!(full.measure_requests >= 6_000);
        assert!(full.warmup_requests > 0);
        let fast = figure_run_options(RunProfile::Fast);
        let smoke = figure_run_options(RunProfile::Smoke);
        assert!(full.measure_requests > fast.measure_requests);
        assert!(fast.measure_requests > smoke.measure_requests);
        assert!(smoke.measure_requests > 0);
    }

    #[test]
    fn experiment_builders_produce_runnable_experiments() {
        // Smallest viable smoke: tiny rate, few requests via the fast path.
        let exp = kvs_experiment(RunProfile::Smoke, SystemPoint::ideal(), 512, 64, 4);
        assert!(exp.config().rx_footprint_bytes() > 0);
        let exp2 = l3fwd_experiment(RunProfile::Smoke, SystemPoint::ddio(2), 64);
        assert!(exp2.config().machine().ddio_ways == 2);
    }

    #[test]
    fn run_figure_rejects_unknown_names() {
        let ctx = FigContext {
            profile: RunProfile::Smoke,
            fleet: Fleet::sequential().quiet(),
            format: OutputFormat::Text,
        };
        let err = run_figure("fig99", &ctx).unwrap_err();
        assert!(err.contains("fig1"), "error should list figures: {err}");
    }

    #[test]
    fn table_artifacts_share_the_manifest() {
        let mut t = Table::new("demo, with comma", &["config", "Mrps"]);
        t.row(vec!["DDIO 2 Ways".into(), "26.10".into()]);

        let csv = t.to_csv("demo");
        assert!(csv.starts_with("# tool: sweeper\n"));
        assert!(csv.contains("# artifact: demo\n"));
        assert!(csv.contains("# title: demo, with comma\n"));
        assert!(csv.contains("\nconfig,Mrps\n"));
        assert!(csv.ends_with("DDIO 2 Ways,26.10\n"));

        let doc = t.to_document("demo");
        assert_eq!(
            doc.get("schema"),
            Some(&Value::Str(FIGURE_TABLE_SCHEMA.into()))
        );
        let Some(Value::Record(table)) = doc.get("table") else {
            panic!("missing table section");
        };
        assert_eq!(table.get("name"), Some(&Value::Str("demo".into())));
        let Some(Value::Array(rows)) = table.get("rows") else {
            panic!("missing rows");
        };
        assert_eq!(rows.len(), 1);
    }
}
