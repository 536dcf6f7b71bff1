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
//!   [`Fleet`] worker pool (`--jobs N`,
//!   default = available parallelism) with identical results for any
//!   worker count,
//! * **run profiles** — `--profile full|fast|smoke` parsed once into a
//!   typed [`RunProfile`],
//! * **output formats** — `--format text|json|csv` selects how emitted
//!   tables print to stdout; the on-disk artifacts are written regardless,
//! * **timing** — per-point wall time on stderr and per-figure totals.
//!
//! Rendering reads all of that from the [`FigContext`] handed to
//! [`Figure::render`](figs::Figure::render); nothing is process-wide. Its
//! [`FigContext::manifest`] (profile and seed) heads every artifact, and
//! Figures 1, 2, 5 and 8 share one systems × columns grid renderer.
//!
//! The simulator's own host speed is measured outside this crate, by the
//! `hostbench/` package.

pub mod figs;

use std::fmt::Write as _;
use std::path::Path;

use sweeper_core::experiment::{Experiment, ExperimentConfig};
use sweeper_core::fleet::Fleet;
use sweeper_core::profile::RunProfile;
use sweeper_core::scenario::{Scenario, ScenarioWorkload};
use sweeper_core::server::{RunOptions, RunReport};
use sweeper_core::telemetry::{
    document, CsvTable, OutputFormat, Record, RunManifest, Value, FIGURE_TABLE_SCHEMA,
};
use sweeper_workloads::kvs::{KvsConfig, MicaKvs, HEADER_BYTES};
use sweeper_workloads::l3fwd::{L3Forwarder, L3fwdConfig};

/// Everything a figure needs to execute: the run-length profile, the seed
/// and the worker fleet. Parsed once from the CLI flags and threaded
/// through the registry.
#[derive(Debug, Clone)]
pub struct FigContext {
    /// Run-length profile for every experiment of the figure.
    pub profile: RunProfile,
    /// RNG seed of every point of the figure (`--seed`).
    pub seed: u64,
    /// Worker pool the figure's points fan out across.
    pub fleet: Fleet,
    /// Stdout format for emitted tables (`--format`). The CSV and JSON
    /// artifacts under `results/` are written for every format.
    pub format: OutputFormat,
}

impl FigContext {
    /// The manifest every figure artifact carries: the profile and seed.
    pub fn manifest(&self) -> RunManifest {
        RunManifest::new()
            .profile(self.profile.to_string())
            .seed(self.seed)
    }
}

/// Runs one registered figure, `table1`, or `all` (table1, then the
/// registry in order) under `ctx`. The entry point behind the CLI's
/// `figure` command.
///
/// # Errors
///
/// Returns a message listing the valid names when `name` is none of them.
pub fn run_figure(name: &str, ctx: &FigContext) -> Result<(), String> {
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
        figs::table1::table().emit(ctx, "table1");
        println!("Table I preset verified against the paper. ✓");
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
        figure.points(ctx.profile, ctx.seed).len(),
        ctx.fleet.jobs(),
        ctx.profile,
    );
    figure.run(ctx);
    eprintln!("[{}] done in {:.1?}", figure.name(), t.elapsed());
    Ok(())
}

/// Run lengths of a figure point under a [`RunProfile`]: the profile's
/// request budget, with the warmup raised to the scenario's
/// [`ring_warmup`](Scenario::ring_warmup) floor so every RX ring has wrapped
/// when measurement starts. The floor is physics, not budget, so it applies
/// under every profile — a smoke run of a deep-ring scenario is still a
/// *valid* (if noisy) run.
pub fn figure_run_options(profile: RunProfile, scenario: &Scenario) -> RunOptions {
    let (warmup, measure, max_cycles) = match profile {
        RunProfile::Full => (10_000, 30_000, 120_000_000_000),
        RunProfile::Fast => (4_000, 8_000, 60_000_000_000),
        RunProfile::Smoke => (1_000, 2_000, 30_000_000_000),
    };
    RunOptions {
        warmup_requests: scenario.ring_warmup().max(warmup),
        measure_requests: measure,
        max_cycles,
        min_warmup_cycles: 0,
        min_measure_cycles: 0,
    }
}

/// The experiment a [`Scenario`] describes: `cfg` (the scenario's
/// [`Scenario::to_config`] plus the caller's run lengths and
/// instrumentation) driven by the workload the scenario names. KVS items
/// fill the packet after the request header; the scenario's `zero_copy`
/// makes the L3 forwarder transmit in place.
pub fn scenario_experiment(cfg: ExperimentConfig, scenario: &Scenario) -> Experiment {
    match scenario.workload {
        ScenarioWorkload::Kvs => {
            let item = scenario.packet.saturating_sub(HEADER_BYTES).max(64);
            let kvs = KvsConfig::paper_default().with_item_bytes(item);
            Experiment::new(cfg, move || MicaKvs::new(kvs))
        }
        ScenarioWorkload::L3fwd => {
            let mut l3 = L3fwdConfig::l2_resident();
            if scenario.zero_copy {
                l3 = l3.with_zero_copy();
            }
            Experiment::new(cfg, move || L3Forwarder::new(l3))
        }
    }
}

/// A figure point's experiment: the scenario under
/// [`figure_run_options`], through [`scenario_experiment`].
pub fn figure_experiment(profile: RunProfile, scenario: &Scenario) -> Experiment {
    let cfg = scenario
        .to_config()
        .run_options(figure_run_options(profile, scenario));
    scenario_experiment(cfg, scenario)
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

/// Writes `results/<file>`, creating `results/` if needed. A failure is
/// reported on stderr rather than silently dropped.
pub(crate) fn write_result(file: &str, contents: &str) {
    let path = Path::new("results").join(file);
    if let Err(e) =
        std::fs::create_dir_all("results").and_then(|()| std::fs::write(&path, contents))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
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

    /// The table as `manifest`-commented CSV in the shared dialect.
    pub fn to_csv(&self, name: &str, manifest: &RunManifest) -> String {
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        let mut csv = CsvTable::new(&headers)
            .comments(&manifest.to_comments())
            .comment("artifact", name)
            .comment("title", self.title.as_str());
        for row in &self.rows {
            csv.row(row.clone());
        }
        csv.to_csv()
    }

    /// The table as a schema-tagged JSON document — the `.json` sidecar
    /// written next to each `.csv`.
    pub fn to_document(&self, name: &str, manifest: &RunManifest) -> Record {
        let headers: Vec<Value> = self
            .headers
            .iter()
            .map(|h| Value::from(h.as_str()))
            .collect();
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
        document(FIGURE_TABLE_SCHEMA, manifest, "table", body)
    }

    /// Prints the table to stdout in `ctx`'s format and writes
    /// `results/<name>.csv` plus its `results/<name>.json` sidecar, both
    /// carrying `ctx`'s manifest.
    pub fn emit(&self, ctx: &FigContext, name: &str) {
        let manifest = ctx.manifest();
        let csv = self.to_csv(name, &manifest);
        let json = self.to_document(name, &manifest).to_json_pretty();
        match ctx.format {
            OutputFormat::Text => println!("{}", self.render()),
            OutputFormat::Json => println!("{json}"),
            OutputFormat::Csv => print!("{csv}"),
        }
        write_result(&format!("{name}.csv"), &csv);
        write_result(&format!("{name}.json"), &format!("{json}\n"));
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
    fn run_options_are_nontrivial_ordered_and_wrap_the_rings() {
        let shallow = Scenario {
            buffers: 64,
            ..Scenario::default()
        };
        let full = figure_run_options(RunProfile::Full, &shallow);
        assert!(full.measure_requests >= 6_000);
        assert!(full.warmup_requests > 0);
        let fast = figure_run_options(RunProfile::Fast, &shallow);
        let smoke = figure_run_options(RunProfile::Smoke, &shallow);
        assert!(full.measure_requests > fast.measure_requests);
        assert!(fast.measure_requests > smoke.measure_requests);
        assert!(smoke.measure_requests > 0);
        let deep = Scenario::default();
        let wrapped = figure_run_options(RunProfile::Smoke, &deep);
        assert_eq!(wrapped.warmup_requests, deep.ring_warmup());
        assert!(wrapped.warmup_requests > smoke.warmup_requests);
    }

    #[test]
    fn scenario_experiments_apply_every_key() {
        let s = Scenario::parse("workload = l3fwd\nzero_copy = true\nbuffers = 64\nseed = 3\n")
            .unwrap();
        let exp = figure_experiment(RunProfile::Smoke, &s);
        assert_eq!(exp.config().server_config().rx_entries, 64);
        assert_eq!(exp.config().server_config().seed, 3);
        assert!(exp.config().rx_footprint_bytes() > 0);
    }

    #[test]
    fn scenario_experiments_run_each_workload() {
        // KVS items fill the packet after the request header.
        let s = Scenario::parse("workload = kvs\npacket = 576\ncores = 2\nbuffers = 16\n").unwrap();
        let cfg = s
            .to_config()
            .run_options(figure_run_options(RunProfile::Smoke, &s));
        let kvs = KvsConfig::paper_default().with_item_bytes(576 - HEADER_BYTES);
        let by_hand = Experiment::new(cfg.clone(), move || MicaKvs::new(kvs)).run_at_rate(1.0e6);
        let report = scenario_experiment(cfg, &s).run_at_rate(1.0e6);
        assert_eq!(report.workload, "mica-kvs");
        assert!(report.completed >= 2_000);
        assert_eq!(report.mem.block_accesses, by_hand.mem.block_accesses);
    }

    fn smoke_context(seed: u64) -> FigContext {
        FigContext {
            profile: RunProfile::Smoke,
            seed,
            fleet: Fleet::new(1),
            format: OutputFormat::Text,
        }
    }

    #[test]
    fn run_figure_rejects_unknown_names() {
        let err = run_figure("fig99", &smoke_context(1)).unwrap_err();
        assert!(err.contains("fig1"), "error should list figures: {err}");
    }

    #[test]
    fn table_artifacts_share_the_manifest() {
        let mut t = Table::new("demo, with comma", &["config", "Mrps"]);
        t.row(vec!["DDIO 2 Ways".into(), "26.10".into()]);
        let manifest = smoke_context(7).manifest();

        let csv = t.to_csv("demo", &manifest);
        assert!(csv.starts_with("# tool: sweeper\n"));
        assert!(csv.contains("# profile: smoke\n# seed: 7\n"));
        assert!(csv.contains("# artifact: demo\n"));
        assert!(csv.contains("# title: demo, with comma\n"));
        assert!(csv.contains("\nconfig,Mrps\n"));
        assert!(csv.ends_with("DDIO 2 Ways,26.10\n"));

        let doc = t.to_document("demo", &manifest);
        assert_eq!(
            doc.get("schema"),
            Some(&Value::Str(FIGURE_TABLE_SCHEMA.into()))
        );
        assert_eq!(
            doc.get("manifest"),
            Some(&Value::from(manifest.to_record()))
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
