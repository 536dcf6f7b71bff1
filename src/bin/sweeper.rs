//! `sweeper` — command-line front end to the simulator.
//!
//! Compose a machine configuration, a workload, and a load pattern from
//! flags, without writing a driver program:
//!
//! ```text
//! sweeper run     --rate 20 --workload kvs --ddio 2 --sweeper
//! sweeper run     --rate 20 --profiler --perfetto trace.json
//! sweeper peak    --workload kvs --buffers 2048 --channels 3
//! sweeper sweep   --lo 5 --hi 60 --points 8 --workload l3fwd --jobs 8
//! sweeper trace   --rate 20 --events 65536 > memtrace.csv
//! sweeper run     --scenario scenarios/kvs_1k.scn --ddio 4
//! sweeper figures
//! sweeper figure fig5 --jobs 8 --profile fast --seed 7
//! sweeper figure all  --jobs 8
//! sweeper info
//! ```
//!
//! A run point is one [`Scenario`]: a `--scenario` file sets it first, and
//! each point flag (`--ddio`, `--buffers`, …) then sets one of its keys
//! through the same validation. Every flag is one row of the `FLAGS` table,
//! which names the commands that read it: any other use is a usage error,
//! and `sweeper help` prints its flag list from the same table. All rates
//! are in Mrps.

use std::process::ExitCode;

use sweeper::bench::figs::table1;
use sweeper::bench::{run_figure, scenario_experiment, FigContext};
use sweeper::core::experiment::{Experiment, PeakCriteria};
use sweeper::core::fleet::{ExperimentPoint, Fleet};
use sweeper::core::loadsweep::{geometric_rates, LoadSweep};
use sweeper::core::observe::FlightRecorderConfig;
use sweeper::core::profile::RunProfile;
use sweeper::core::report::{csv_report, text_report};
use sweeper::core::scenario::Scenario;
use sweeper::core::server::{RunOptions, RunReport};
use sweeper::core::telemetry::{
    check_document, check_figure_record, document, outlier_document, perfetto_document,
    run_document, timeseries_document, OutputFormat, Record, RunManifest, Value, LOADSWEEP_SCHEMA,
};
use sweeper::sim::addr::MAX_BLOCKS;
use sweeper::sim::check::{CheckConfig, CheckReport, ViolationKind};
use sweeper::sim::hierarchy::MachineConfig;
use sweeper::sim::BLOCK_BYTES;

const USAGE: &str = "usage: sweeper <run|peak|sweep|trace|check|figures|figure <NAME>|info|help> [flags] — see `sweeper help`";

const HELP: &str = "\
sweeper — DDIO network-data-leak simulator (MICRO'22 'Sweeper' reproduction)

USAGE:
    sweeper <COMMAND> [FLAGS]

COMMANDS:
    run      simulate one operating point and print its report
    peak     search the peak sustainable throughput under the p99 SLO
    sweep    run a load-latency sweep and print CSV
    trace    simulate one operating point and dump the memory-event trace
             as CSV on stdout (report summary goes to stderr)
    figures  list the paper figures the registry can regenerate
    figure <NAME>  regenerate one figure (table1, fig1..fig10, ablations,
             outliers), or `all`: table1 then every figure in order
    check [NAME]   run every registered figure configuration (or just NAME)
             through the correctness harness and report pass/fail per
             invariant; nonzero exit on any violation
    info     print the simulated machine (Table I)
    help     show this text

JSON and CSV exports carry a run manifest (tool version, config summary,
workload, seed, wall time; run/peak/sweep/trace add the canonical scenario
text, which `--scenario` reads back) so artifacts found on disk identify
their run.

FLAGS, under the commands that take them (figures, info and help take none;
a point flag's scenario key follows its description in parentheses):
";

/// One command-line flag. `parse` accepts it only on the commands listed
/// here, and `sweeper help` prints it from here.
struct Flag {
    name: &'static str,
    /// Value placeholder; `None` for a switch.
    value: Option<&'static str>,
    /// The [`Scenario`] key the flag sets; a switch sets it to `true`.
    key: Option<&'static str>,
    /// The commands that read the flag.
    commands: &'static [&'static str],
    /// One help line, ending with the default where there is one.
    help: &'static str,
}

const fn flag(
    name: &'static str,
    value: Option<&'static str>,
    key: Option<&'static str>,
    commands: &'static [&'static str],
    help: &'static str,
) -> Flag {
    Flag {
        name,
        value,
        key,
        commands,
        help,
    }
}

/// Commands that simulate a point of their own.
const POINT: &[&str] = &["run", "peak", "sweep", "trace"];
/// Commands that keep one run's samples, spans and profile; a sweep or a
/// figure keeps per-point summaries only.
const SINGLE_RUN: &[&str] = &["run", "peak", "trace"];

/// Every flag, grouped by the commands that take it, in help order.
#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    flag("--scenario", Some("FILE"), None, POINT,
         "key=value file applied first; the other flags override it"),
    flag("--workload", Some("kvs|l3fwd"), Some("workload"), POINT, "app model [kvs]"),
    flag("--policy", Some("dma|ddio|ideal"), Some("policy"), POINT, "injection policy [ddio]"),
    flag("--ddio", Some("1..12"), Some("ddio_ways"), POINT, "DDIO LLC ways [2]"),
    flag("--sweeper", None, Some("sweeper"), POINT, "enable Sweeper, relinquish on RX"),
    flag("--tx-sweep", None, Some("tx_sweep"), POINT, "enable NIC-driven TX sweeping, §V-D"),
    flag("--zero-copy", None, Some("zero_copy"), POINT, "l3fwd transmits in place"),
    flag("--buffers", Some("N"), Some("buffers"), POINT, "RX ring entries per core [1024]"),
    flag("--endpoints", Some("N"), Some("endpoints"), POINT, "endpoints per core [1]"),
    flag("--packet", Some("64..65536"), Some("packet"), POINT, "packet bytes [1088]"),
    flag("--channels", Some("N"), Some("channels"), POINT, "DDR4 channels [4]"),
    flag("--cores", Some("N"), Some("cores"), POINT, "active cores [24]"),
    flag("--rate", Some("MRPS"), Some("rate_mrps"), POINT, "offered load, > 0 [20]"),
    flag("--requests", Some("N"), None, POINT, "measured requests, >= 1 [20000]"),
    flag("--validate", None, None, POINT,
         "check with the shadow-memory oracle and invariant walks"),
    flag("--seed", Some("N"), Some("seed"), &["run", "peak", "sweep", "trace", "figure", "check"],
         "RNG seed; figures run every point with it [0x5eed]"),
    flag("--lo", Some("MRPS"), None, &["sweep"], "lowest rate, 0 < lo < hi [2]"),
    flag("--hi", Some("MRPS"), None, &["sweep"], "highest rate [60]"),
    flag("--points", Some("N"), None, &["sweep"], "rates in the grid, >= 2 [8]"),
    flag("--jobs", Some("N"), None, &["sweep", "figure", "check"], "worker threads [all cores]"),
    flag("--profile", Some("full|fast|smoke"), None, &["figure", "check"], "run lengths [full]"),
    flag("--format", Some("text|json|csv"), None, &["run", "peak", "sweep", "figure", "check"],
         "stdout format; check takes text or json [text]"),
    flag("--walk-every", Some("REQUESTS"), None, &["run", "peak", "sweep", "trace", "check"],
         "walk period; needs --validate except on check [1024]"),
    flag("--timeseries", Some("PATH"), None, SINGLE_RUN,
         "write the time series (CSV if PATH ends in .csv, else JSON)"),
    flag("--sample-every", Some("CYCLES"), None, SINGLE_RUN,
         "sampling period; needs --timeseries [1000000]"),
    flag("--trace-spans", None, None, SINGLE_RUN,
         "record request-level causal spans (nic_dma, cpu_read, ...)"),
    flag("--perfetto", Some("PATH"), None, SINGLE_RUN,
         "write spans as Perfetto JSON; implies --trace-spans"),
    flag("--profiler", None, None, SINGLE_RUN,
         "attribute simulated cycles and DRAM accesses per stage"),
    flag("--flight-recorder", None, None, SINGLE_RUN,
         "snapshot the spans around requests past the quantile"),
    flag("--flight-quantile", Some("Q"), None, SINGLE_RUN,
         "0 < Q < 1; needs --flight-recorder [0.999]"),
    flag("--outliers", Some("DIR"), None, SINGLE_RUN,
         "snapshot directory; needs --flight-recorder [results/outliers]"),
    flag("--events", Some("N"), None, SINGLE_RUN,
         "ring size; needs --trace-spans or --perfetto except on trace [65536]"),
];

/// The help text: [`HELP`], then every flag of [`FLAGS`] under the commands
/// that take it.
fn help() -> String {
    let mut out = HELP.to_string();
    let mut commands: &[&str] = &[];
    for f in FLAGS {
        if f.commands != commands {
            commands = f.commands;
            out += &format!("  {}:\n", commands.join(", "));
        }
        let usage = match f.value {
            Some(v) => format!("{} <{v}>", f.name),
            None => f.name.to_string(),
        };
        let key = f.key.map(|k| format!(" ({k})")).unwrap_or_default();
        out += &format!("    {usage:<32}  {}{key}\n", f.help);
    }
    out
}

/// Looks `arg` up in [`FLAGS`] and checks that `command` reads it.
fn flag_of(command: &str, arg: &str) -> Result<&'static Flag, String> {
    let flag = FLAGS
        .iter()
        .find(|f| f.name == arg)
        .ok_or_else(|| format!("unknown flag '{arg}' (see `sweeper help`)"))?;
    if !flag.commands.contains(&command) {
        return Err(format!("`{command}` does not take {arg}"));
    }
    Ok(flag)
}

#[derive(Debug, Clone)]
struct Cli {
    command: String,
    /// Positional argument of `figure <NAME>`.
    figure: Option<String>,
    jobs: Option<usize>,
    profile: RunProfile,
    /// The run point: a `--scenario` file, then the point flags.
    scenario: Scenario,
    requests: u64,
    lo: f64,
    hi: f64,
    points: usize,
    validate: bool,
    walk_every: Option<u64>,
    format: OutputFormat,
    timeseries: Option<String>,
    sample_every: Option<u64>,
    trace_spans: bool,
    perfetto: Option<String>,
    profiler: bool,
    flight_recorder: bool,
    flight_quantile: Option<f64>,
    outliers: Option<String>,
    events: Option<usize>,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            command: "help".into(),
            figure: None,
            jobs: None,
            profile: RunProfile::default(),
            scenario: Scenario::default(),
            requests: 20_000,
            lo: 2.0,
            hi: 60.0,
            points: 8,
            validate: false,
            walk_every: None,
            format: OutputFormat::Text,
            timeseries: None,
            sample_every: None,
            trace_spans: false,
            perfetto: None,
            profiler: false,
            flight_recorder: false,
            flight_quantile: None,
            outliers: None,
            events: None,
        }
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    cli.command = it.next().cloned().unwrap_or_else(|| "help".into());
    // A scenario file applies first so explicit flags override it.
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        flag_of(&cli.command, "--scenario")?;
        let path = args.get(i + 1).ok_or("flag --scenario needs a value")?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        cli.scenario = Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    if cli.command == "figure" {
        cli.figure = Some(
            it.next()
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .ok_or_else(|| {
                    "command `figure` needs a name (see `sweeper figures`)".to_string()
                })?,
        );
    }
    // `check` takes an *optional* positional figure name; peek so a flag in
    // that position is left for the flag loop.
    if cli.command == "check" && it.peek().is_some_and(|a| !a.starts_with("--")) {
        cli.figure = it.next().cloned();
    }
    while let Some(arg) = it.next() {
        let spec = flag_of(&cli.command, arg)?;
        let flag = spec.name;
        let value = match spec.value {
            Some(_) => it
                .next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))?,
            None => "true".to_string(),
        };
        if let Some(key) = spec.key {
            cli.scenario
                .set(key, &value)
                .map_err(|e| format!("{flag}: {e}"))?;
            continue;
        }
        match flag {
            "--scenario" => {} // applied before the loop
            "--requests" => cli.requests = num(flag, &value)?,
            "--lo" => cli.lo = num(flag, &value)?,
            "--hi" => cli.hi = num(flag, &value)?,
            "--points" => cli.points = num(flag, &value)?,
            "--jobs" => cli.jobs = Some(num(flag, &value)?),
            "--profile" => cli.profile = value.parse()?,
            "--validate" => cli.validate = true,
            "--walk-every" => cli.walk_every = Some(num(flag, &value)?),
            "--format" => cli.format = value.parse()?,
            "--timeseries" => cli.timeseries = Some(value),
            "--sample-every" => cli.sample_every = Some(num(flag, &value)?),
            "--trace-spans" => cli.trace_spans = true,
            "--perfetto" => cli.perfetto = Some(value),
            "--profiler" => cli.profiler = true,
            "--flight-recorder" => cli.flight_recorder = true,
            "--flight-quantile" => cli.flight_quantile = Some(num(flag, &value)?),
            "--outliers" => cli.outliers = Some(value),
            "--events" => cli.events = Some(num(flag, &value)?),
            _ => unreachable!("every FLAGS row without a scenario key has an arm"),
        }
    }
    if let Some(q) = cli.flight_quantile {
        if !(q > 0.0 && q < 1.0) {
            return Err(format!("--flight-quantile must be in (0, 1), got {q}"));
        }
        if !cli.flight_recorder {
            return Err("--flight-quantile needs --flight-recorder".to_string());
        }
    }
    if cli.outliers.is_some() && !cli.flight_recorder {
        return Err("--outliers needs --flight-recorder".to_string());
    }
    if cli.sample_every.is_some() && cli.timeseries.is_none() {
        // Only the time series file carries samples; no report does.
        return Err("--sample-every needs --timeseries".to_string());
    }
    if cli.events.is_some() && cli.command != "trace" && !cli.trace_spans && cli.perfetto.is_none()
    {
        // Off `trace`, only the span ring reads it.
        return Err("--events needs --trace-spans or --perfetto".to_string());
    }
    if cli.sample_every == Some(0) {
        return Err("--sample-every must be positive".to_string());
    }
    if cli.events == Some(0) {
        return Err("--events must be positive".to_string());
    }
    if cli.requests == 0 {
        return Err("--requests must be at least 1".to_string());
    }
    if cli.jobs == Some(0) {
        return Err("--jobs must be at least 1".to_string());
    }
    if cli.points < 2 {
        return Err(format!("--points must be at least 2, got {}", cli.points));
    }
    if !(cli.lo > 0.0 && cli.lo < cli.hi && cli.hi.is_finite()) {
        return Err(format!(
            "--lo/--hi must satisfy 0 < lo < hi, got lo {} and hi {}",
            cli.lo, cli.hi
        ));
    }
    if cli.walk_every.is_some() && !cli.validate && cli.command != "check" {
        return Err("--walk-every needs --validate (or the check command)".to_string());
    }
    if cli.command == "check" && cli.format == OutputFormat::Csv {
        return Err("`check` takes --format text or json, not csv".to_string());
    }
    Ok(cli)
}

/// The [`CheckConfig`] this invocation's `--validate`/`check` flags select.
fn check_config(cli: &Cli) -> CheckConfig {
    let mut check = CheckConfig::default();
    if let Some(every) = cli.walk_every {
        check.walk_every_requests = every;
    }
    check
}

fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: invalid number '{s}'"))
}

fn build_experiment(cli: &Cli) -> Result<Experiment, String> {
    let s = &cli.scenario;
    let mut cfg = s.to_config().run_options(RunOptions {
        warmup_requests: s.ring_warmup().max(10_000),
        measure_requests: cli.requests,
        max_cycles: 600_000_000_000,
        min_warmup_cycles: 0,
        min_measure_cycles: 0,
    });
    let footprint = cfg.rx_footprint_bytes();
    let limit = MAX_BLOCKS * BLOCK_BYTES;
    if footprint > limit {
        return Err(format!(
            "RX buffers of {footprint} bytes exceed the simulated address limit of \
             {limit} bytes (32 GiB); use fewer cores, endpoints, buffers or smaller packets"
        ));
    }
    if cli.timeseries.is_some() {
        cfg = cfg.sampling(cli.sample_every.unwrap_or(1_000_000));
    }
    let events = cli.events.unwrap_or(65_536);
    if cli.trace_spans || cli.perfetto.is_some() {
        cfg = cfg.spans(events);
    }
    if cli.profiler {
        cfg = cfg.profiler();
    }
    if cli.flight_recorder {
        cfg = cfg.flight(FlightRecorderConfig {
            quantile: cli
                .flight_quantile
                .unwrap_or(FlightRecorderConfig::default().quantile),
            ..FlightRecorderConfig::default()
        });
    }
    if cli.validate {
        cfg = cfg.check(check_config(cli));
    }
    if cli.command == "trace" {
        cfg = cfg.memtrace(events);
    }
    cfg.server_config().validate()?;
    Ok(scenario_experiment(cfg, s))
}

/// Prints the `--validate` verdict for one report, and a failure's kinds and
/// details, to stderr; `false` means violations (the exit code fails).
fn check_passed(label: &str, report: &RunReport) -> bool {
    let Some(check) = &report.check else {
        return true;
    };
    eprintln!("validate [{label}]: {}", check.verdict());
    for (kind, n) in check.violations() {
        eprintln!("  {n} x {kind}");
    }
    for detail in &check.details {
        eprintln!("  {detail}");
    }
    check.passed()
}

/// The manifest attached to this invocation's exports.
fn cli_manifest(cli: &Cli, exp: &Experiment) -> RunManifest {
    RunManifest::new()
        .config(exp.config().summary())
        .workload(cli.scenario.workload.name())
        .seed(cli.scenario.seed)
        .scenario(cli.scenario.to_text())
}

/// `run`, `peak` and `trace`: simulates one operating point (for `peak`, the
/// point the peak search settles on), writes its time series and observer
/// outputs, prints it on stdout — the report in `--format`, or for `trace`
/// the memory-event CSV — and reports `--validate` on stderr.
fn run_point(cli: &Cli, exp: &Experiment) -> ExitCode {
    let t = std::time::Instant::now();
    let peak = (cli.command == "peak").then(|| exp.find_peak(PeakCriteria::default()));
    let single;
    let report = match &peak {
        Some(peak) => &peak.report,
        None => {
            single = exp.run_at_rate(cli.scenario.rate_mrps * 1e6);
            &single
        }
    };
    let manifest = cli_manifest(cli, exp).wall_secs(t.elapsed().as_secs_f64());
    if let Err(e) = write_timeseries(cli, report, &manifest)
        .and_then(|()| write_observability(cli, report, &manifest))
    {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    if cli.command == "trace" {
        let trace = report
            .memtrace
            .as_ref()
            .expect("the trace command always enables memory tracing");
        // The CSV goes to stdout so it pipes cleanly; the run summary goes
        // to stderr.
        print!("{}", trace.to_csv_with_comments(&manifest.to_comments()));
        eprintln!(
            "traced {} memory events ({} retained) over {} requests at {:.1} Mrps",
            trace.recorded(),
            trace.events().len(),
            report.completed,
            report.throughput_mrps()
        );
    } else {
        match cli.format {
            OutputFormat::Text => {
                match &peak {
                    Some(peak) => println!(
                        "peak: {:.2} Mrps (SLO = {} cycles = 100 x {:.0}-cycle unloaded service)",
                        peak.throughput_mrps(),
                        peak.slo_cycles,
                        peak.unloaded_service_cycles
                    ),
                    None => println!(
                        "== {} @ {:.1} Mrps offered ==",
                        cli.scenario.workload.name(),
                        cli.scenario.rate_mrps
                    ),
                }
                print!("{}", text_report(report));
            }
            OutputFormat::Json => {
                let mut doc = run_document(report, &manifest);
                if let Some(peak) = &peak {
                    doc.push(
                        "peak",
                        Record::new()
                            .with("rate_mrps", peak.throughput_mrps())
                            .with("slo_cycles", peak.slo_cycles)
                            .with("unloaded_service_cycles", peak.unloaded_service_cycles),
                    );
                }
                print!("{}", doc.to_json_pretty());
            }
            OutputFormat::Csv => {
                let mut comments = manifest.to_comments();
                if let Some(peak) = &peak {
                    comments.push((
                        "peak_mrps".to_string(),
                        format!("{:.2}", peak.throughput_mrps()),
                    ));
                }
                print!("{}", csv_report(report, &comments));
            }
        }
    }
    if check_passed(&cli.command, report) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the sampled time series to `--timeseries <PATH>` (CSV when the
/// path ends in `.csv`, a JSON document otherwise).
fn write_timeseries(cli: &Cli, report: &RunReport, manifest: &RunManifest) -> Result<(), String> {
    let Some(path) = &cli.timeseries else {
        return Ok(());
    };
    let ts = report
        .timeseries
        .as_ref()
        .ok_or("run produced no time series (sampler was not enabled)")?;
    let out = if path.ends_with(".csv") {
        ts.to_csv_with_comments(&manifest.to_comments())
    } else {
        timeseries_document(ts, manifest).to_json_pretty()
    };
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote time series ({} samples) to {path}", ts.samples.len());
    Ok(())
}

/// Writes the `--perfetto` span export and the flight recorder's outlier
/// snapshots (`--outliers <DIR>/<n>.json`), when the flags enabled them.
fn write_observability(
    cli: &Cli,
    report: &RunReport,
    manifest: &RunManifest,
) -> Result<(), String> {
    if let Some(path) = &cli.perfetto {
        let spans = report
            .spans
            .as_ref()
            .ok_or("run produced no spans (span recording was not enabled)")?;
        let doc = perfetto_document(spans, manifest);
        std::fs::write(path, doc.to_json_pretty())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote perfetto trace ({} spans retained of {} recorded) to {path}",
            spans.len(),
            spans.recorded()
        );
    }
    if let Some(outliers) = &report.outliers {
        let dir = std::path::Path::new(cli.outliers.as_deref().unwrap_or("results/outliers"));
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for snapshot in outliers {
            let path = dir.join(format!("{}.json", snapshot.seq));
            let doc = outlier_document(snapshot, manifest);
            std::fs::write(&path, doc.to_json_pretty())
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        eprintln!(
            "flight recorder captured {} outlier snapshot(s) in {}",
            outliers.len(),
            dir.display()
        );
    }
    Ok(())
}

/// The fleet/profile/seed context of `sweep`, `figure` and `check`.
fn fig_context(cli: &Cli) -> FigContext {
    FigContext {
        profile: cli.profile,
        seed: cli.scenario.seed,
        fleet: cli.jobs.map(Fleet::new).unwrap_or_default(),
        format: cli.format,
    }
}

/// Argument and configuration errors are usage errors: one line, a pointer
/// at the help text, and exit status 2 (distinct from runtime failures).
fn usage_error(e: &str) -> ExitCode {
    eprintln!("error: {e}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => return usage_error(&e),
    };
    match cli.command.as_str() {
        "help" | "--help" | "-h" => {
            print!("{}", help());
            ExitCode::SUCCESS
        }
        "info" => {
            // Table I, plus the one derived figure it does not list.
            print!("{}", table1::table().render());
            println!(
                "DDR4 peak bandwidth: {:.1} GB/s",
                MachineConfig::paper_default().dram.peak_bandwidth_gbps()
            );
            ExitCode::SUCCESS
        }
        "run" | "peak" | "trace" => match build_experiment(&cli) {
            Ok(exp) => run_point(&cli, &exp),
            Err(e) => usage_error(&e),
        },
        "sweep" => {
            let rates = geometric_rates(cli.lo * 1e6, cli.hi * 1e6, cli.points);
            let points: Result<Vec<_>, String> = rates
                .iter()
                .map(|&rate| {
                    let label = format!("{:.1} Mrps", rate / 1e6);
                    build_experiment(&cli).map(|exp| ExperimentPoint::at_rate(label, exp, rate))
                })
                .collect();
            let points = match points {
                Ok(points) => points,
                Err(e) => return usage_error(&e),
            };
            let manifest = cli_manifest(&cli, points[0].experiment());
            let t = std::time::Instant::now();
            // Every rate runs, whatever the worker count; the reports
            // carry the check sections of a validated sweep.
            let outcomes = fig_context(&cli).fleet.run(points);
            let sweep = LoadSweep::new(&rates, &outcomes);
            let manifest = manifest.wall_secs(t.elapsed().as_secs_f64());
            match cli.format {
                // `text` keeps the historical bare-CSV stdout contract.
                OutputFormat::Text => print!("{}", sweep.to_csv()),
                OutputFormat::Csv => {
                    print!("{}", sweep.to_csv_with_comments(&manifest.to_comments()));
                }
                OutputFormat::Json => {
                    let doc = document(LOADSWEEP_SCHEMA, &manifest, "sweep", sweep.to_record());
                    print!("{}", doc.to_json_pretty());
                }
            }
            if let Some(knee) = sweep.knee() {
                eprintln!("knee at ~{:.1} Mrps offered", knee.offered_rate / 1e6);
            }
            // The fleet's `[check i/n]` lines gave every point's verdict;
            // only the failing ones are spelled out.
            let mut all_pass = true;
            for outcome in &outcomes {
                if outcome.report.check.as_ref().is_some_and(|c| !c.passed()) {
                    all_pass &= check_passed(&outcome.label, &outcome.report);
                }
            }
            if !all_pass {
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        "figures" => {
            println!("{:<10} Table I — simulated machine parameters", "table1");
            for figure in sweeper::bench::figs::registry() {
                println!("{:<10} {}", figure.name(), figure.description());
            }
            ExitCode::SUCCESS
        }
        "figure" => {
            let name = cli.figure.clone().expect("parser enforces the name");
            match run_figure(&name, &fig_context(&cli)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => usage_error(&e),
            }
        }
        "check" => {
            let ctx = fig_context(&cli);
            let figures: Vec<&'static dyn sweeper::bench::figs::Figure> =
                match cli.figure.as_deref() {
                    Some(name) => match sweeper::bench::figs::find(name) {
                        Some(figure) => vec![figure],
                        None => {
                            return usage_error(&format!(
                                "unknown figure '{name}' (see `sweeper figures`)"
                            ))
                        }
                    },
                    None => sweeper::bench::figs::registry().to_vec(),
                };
            let check = check_config(&cli);
            eprintln!(
                "checked mode: profile {}, walk every {} requests",
                ctx.profile, check.walk_every_requests
            );
            // Text goes to stdout figure by figure; under `--format json`
            // stdout carries only the `sweeper.check/1` document.
            let text = cli.format == OutputFormat::Text;
            let mut total = CheckReport::default();
            let mut figure_records: Vec<Value> = Vec::new();
            for figure in figures {
                let points: Vec<_> = figure
                    .points(ctx.profile, ctx.seed)
                    .into_iter()
                    .map(|p| p.checked(check))
                    .collect();
                let n = points.len();
                let mut sum = CheckReport::default();
                let mut failed: Vec<String> = Vec::new();
                for outcome in ctx.fleet.run(points) {
                    let mut c = outcome.report.check.expect("a checked report");
                    if !c.passed() {
                        failed.push(outcome.label.clone());
                    }
                    for detail in &mut c.details {
                        *detail = format!("{}: {detail}", outcome.label);
                    }
                    sum.merge(&c);
                }
                let (name, events, walks) = (figure.name(), sum.events, sum.walks);
                let (violations, k) = (sum.total_violations(), failed.len());
                if text && violations == 0 {
                    println!(
                        "{name:<10} pass  ({n} points, {events} events mirrored, {walks} walks)"
                    );
                } else if text {
                    println!("{name:<10} FAIL  ({violations} violations across {k} of {n} points)");
                    for detail in &sum.details {
                        println!("    {detail}");
                    }
                }
                figure_records.push(Value::from(check_figure_record(name, n, &sum, &failed)));
                total.merge(&sum);
            }
            if text {
                println!("per-invariant summary:");
                for kind in ViolationKind::ALL {
                    match total.count(kind) {
                        0 => println!("  {:<30} pass", kind.name()),
                        n => println!("  {:<30} FAIL ({n})", kind.name()),
                    }
                }
                if total.passed() {
                    println!("check: all invariants pass");
                }
            } else {
                let doc = check_document(figure_records, &ctx.manifest());
                print!("{}", doc.to_json_pretty());
            }
            if total.passed() {
                ExitCode::SUCCESS
            } else {
                eprintln!("check: FAIL");
                ExitCode::FAILURE
            }
        }
        other => usage_error(&format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    /// A scenario with every key away from its default, so a key the flags
    /// fail to set cannot compare equal by accident.
    fn non_default() -> Scenario {
        Scenario::parse(
            "workload = l3fwd\npolicy = ideal\nddio_ways = 5\nsweeper = true\n\
             tx_sweep = true\nzero_copy = true\nbuffers = 333\nendpoints = 3\npacket = 512\n\
             channels = 6\ncores = 7\nseed = 99\nrate_mrps = 7.5\n",
        )
        .unwrap()
    }

    #[test]
    fn every_scenario_key_has_a_point_flag() {
        let s = non_default();
        for field in s.to_text().lines() {
            assert_ne!(
                Scenario::parse(field).unwrap(),
                Scenario::default(),
                "{field}"
            );
        }
        let text = s.to_text();
        let mut all = args(&["run"]);
        for field in text.lines() {
            let (key, value) = field.split_once(" = ").unwrap();
            let spec = FLAGS
                .iter()
                .find(|f| f.key == Some(key))
                .unwrap_or_else(|| panic!("scenario key '{key}' has no flag"));
            let flag = spec.name;
            let mut one = args(&["run", flag]);
            if spec.value.is_none() {
                assert_eq!(value, "true", "{flag} can only set {key} = true");
            } else {
                one.push(value.to_string());
            }
            // By flag and by file, one key at a time ...
            assert_eq!(
                parse(&one).unwrap().scenario,
                Scenario::parse(field).unwrap(),
                "{flag} disagrees with '{field}'"
            );
            all.extend(one.into_iter().skip(1));
        }
        // ... and all of them together.
        assert_eq!(parse(&all).unwrap().scenario, s);
        let point_flags = FLAGS.iter().filter(|f| f.key.is_some()).count();
        assert_eq!(point_flags, text.lines().count());
    }

    /// Every command `main` runs.
    const COMMANDS: [&str; 9] = [
        "run", "peak", "sweep", "trace", "figure", "check", "figures", "info", "help",
    ];

    /// `spec`'s flag with a valid value (none for a switch), then any flag
    /// it needs alongside on `command`.
    fn sample(spec: &Flag, command: &str) -> Vec<String> {
        let mut line = args(&[spec.name]);
        if spec.value.is_some() {
            let value = match spec.name {
                "--scenario" => concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios/kvs_1k.scn"),
                "--workload" => "l3fwd",
                "--policy" => "ideal",
                "--packet" => "512",
                "--profile" => "smoke",
                "--format" => "json",
                "--flight-quantile" => "0.5",
                "--hi" => "30",
                _ => "3",
            };
            line.push(value.to_string());
        }
        let companions: &[&str] = match spec.name {
            "--sample-every" => &["--timeseries", "ts.csv"],
            "--flight-quantile" | "--outliers" => &["--flight-recorder"],
            "--walk-every" if command != "check" => &["--validate"],
            "--events" if command != "trace" => &["--trace-spans"],
            _ => &[],
        };
        line.extend(args(companions));
        line
    }

    #[test]
    fn each_flag_parses_on_exactly_its_commands() {
        for spec in FLAGS {
            assert!(
                spec.commands.iter().all(|c| COMMANDS.contains(c)),
                "{} names an unknown command",
                spec.name
            );
            for command in COMMANDS {
                let mut line = args(&[command]);
                if command == "figure" {
                    line.push("fig2".to_string());
                }
                line.extend(sample(spec, command));
                let parsed = parse(&line);
                if spec.commands.contains(&command) {
                    assert!(parsed.is_ok(), "{line:?}: {}", parsed.unwrap_err());
                } else {
                    let expected = format!("`{command}` does not take {}", spec.name);
                    assert_eq!(parsed.unwrap_err(), expected, "{line:?}");
                }
            }
        }
    }

    #[test]
    fn point_flag_errors_name_the_flag() {
        let err = parse(&args(&["run", "--ddio", "20"])).unwrap_err();
        assert_eq!(err, "--ddio: 20 outside [1, 12]");
        let err = parse(&args(&["run", "--rate", "nan"])).unwrap_err();
        assert_eq!(err, "--rate: invalid rate 'nan'");
    }
}
