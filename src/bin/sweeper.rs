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
//! sweeper perf    --json BENCH_sim.json
//! sweeper info
//! ```
//!
//! A run point is one [`Scenario`]: a `--scenario` file sets it first, and
//! each point flag (`--ddio`, `--buffers`, …) then sets one of its keys
//! through the same validation. Figures fix their own points, so `figure`
//! and `check` take only `--seed`. All rates are in Mrps. Run `sweeper help`
//! for the full flag list.

use std::process::ExitCode;

use sweeper::bench::{perf, run_figure, scenario_experiment, FigContext};
use sweeper::core::experiment::{Experiment, PeakCriteria};
use sweeper::core::fleet::Fleet;
use sweeper::core::loadsweep::{LoadSweep, RateGrid};
use sweeper::core::profile::RunProfile;
use sweeper::core::report::{emit, text_report, CsvSink, ReportStyle};
use sweeper::core::scenario::Scenario;
use sweeper::core::server::{FlightRecorderConfig, RunOptions, RunReport, SamplerConfig};
use sweeper::core::telemetry::{
    check_document, document, outlier_document, perfetto_document, run_document,
    timeseries_document, OutputFormat, Record, RunManifest, Value, LOADSWEEP_SCHEMA,
};
use sweeper::sim::check::{CheckConfig, ViolationKind};
use sweeper::sim::hierarchy::MachineConfig;

const USAGE: &str = "usage: sweeper <run|peak|sweep|trace|check|figures|figure <NAME>|perf|info|help> [flags] — see `sweeper help`";

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
    perf     measure simulator throughput (simulated block accesses per
             host second) on a fixed KVS point; --json writes the
             BENCH_sim.json record, --check gates against one
    info     print the simulated machine (Table I)
    help     show this text

POINT FLAGS — each sets one key of the run's scenario (key in parentheses):
    --workload <kvs|l3fwd|synthetic>   workload model (workload)      [kvs]
    --policy <dma|ddio|ideal>          injection policy (policy)      [ddio]
    --ddio <1..12>                     DDIO LLC ways (ddio_ways)      [2]
    --sweeper                          enable Sweeper, relinquish on RX
                                       (sweeper)
    --tx-sweep                         enable NIC-driven TX sweeping, §V-D
                                       (tx_sweep)
    --zero-copy                        l3fwd transmits in place (zero_copy)
    --buffers <N>                      RX ring entries/core (buffers) [1024]
    --endpoints <N>                    endpoints per core (endpoints) [1]
    --packet <64..65536>               packet bytes (packet)          [1088]
    --channels <N>                     DDR4 channels (channels)       [4]
    --cores <N>                        active cores (cores)           [24]
    --seed <N>                         RNG seed (seed)                [0x5eed]
    --rate <MRPS>                      offered load, > 0 (rate_mrps)  [20]
    --scenario <FILE>                  load a key=value scenario file first;
                                       point flags override its values
    `figure` and `check` take only --seed (every figure point runs with
    it); `figures`, `perf` and `info` take no point flag.

OTHER FLAGS (all optional):
    --requests <N>                     measured requests, >= 1  [20000]
    --lo/--hi <MRPS>, --points <N>     sweep grid, 0 < lo < hi, points >= 2
                                                                [2..60, 8]
    --jobs <N>                         worker threads for sweep/figure/check
                                       [all cores]
    --profile <full|fast|smoke>        figure/check run lengths
                                       [full; perf: fast]
    --format <text|json|csv>           output format for run/peak/sweep
                                       (figure: stdout table format) [text]
    --timeseries <PATH>                sample the run and write the time
                                       series (CSV when PATH ends in .csv,
                                       JSON otherwise)
    --sample-every <CYCLES>            sampling period; implies an enabled
                                       sampler                [1000000]
    --trace-spans                      record request-level causal spans
                                       (nic_dma, rx_ring_wait, cpu_read, ...)
    --perfetto <PATH>                  write retained spans as a Chrome-
                                       trace-event JSON (open on
                                       ui.perfetto.dev); implies --trace-spans
                                       (run/peak only)
    --profiler                         attribute simulated cycles and DRAM
                                       accesses per pipeline stage; the tree
                                       rides the run/peak report in every
                                       --format (the name avoids the
                                       run-length --profile flag)
    --flight-recorder                  snapshot the span window around
                                       requests beyond the online latency
                                       quantile into --outliers (run/peak
                                       only); implies span recording
    --flight-quantile <Q>              flight-recorder threshold quantile,
                                       0 < Q < 1               [0.999]
    --outliers <DIR>                   flight-recorder output directory
                                       [results/outliers]
    --events <N>                       span/trace ring capacity [65536]
    --validate                         enable the correctness harness
                                       (shadow-memory oracle + invariant
                                       walks) for run/peak/sweep; violations
                                       go to stderr and fail the exit code
    --walk-every <REQUESTS>            completed requests between invariant
                                       walks in checked mode      [1024]
    --json <PATH>                      perf: write the BENCH_sim.json record
    --check <PATH>                     perf: re-measure under PATH's profile
                                       and fail on a regression
    --max-regress <PCT>                perf --check tolerance       [20]

JSON and CSV exports carry a run manifest (tool version, config summary,
workload, seed, wall time; run/peak/sweep/trace add the canonical scenario
text, which `--scenario` reads back) so artifacts found on disk identify
their run.
";

/// Flags that each set one [`Scenario`] key, and the key they set. The
/// switches (`--sweeper`, `--tx-sweep`, `--zero-copy`) take no value and set
/// their key to `true`.
const POINT_FLAGS: [(&str, &str); 13] = [
    ("--workload", "workload"),
    ("--policy", "policy"),
    ("--ddio", "ddio_ways"),
    ("--sweeper", "sweeper"),
    ("--tx-sweep", "tx_sweep"),
    ("--zero-copy", "zero_copy"),
    ("--buffers", "buffers"),
    ("--endpoints", "endpoints"),
    ("--packet", "packet"),
    ("--channels", "channels"),
    ("--cores", "cores"),
    ("--seed", "seed"),
    ("--rate", "rate_mrps"),
];

fn is_switch(flag: &str) -> bool {
    matches!(flag, "--sweeper" | "--tx-sweep" | "--zero-copy")
}

/// Rejects a point flag (or `--scenario`) on a command that has no run
/// point: figures fix their own points and take only the seed.
fn check_point_flag(command: &str, flag: &str) -> Result<(), String> {
    match command {
        "figure" | "check" if flag != "--seed" => Err(format!(
            "`{command}` does not take {flag}: figure points are fixed; only --seed applies"
        )),
        "figures" | "perf" | "info" => Err(format!("`{command}` does not take {flag}")),
        _ => Ok(()),
    }
}

#[derive(Debug, Clone)]
struct Cli {
    command: String,
    /// Positional argument of `figure <NAME>`.
    figure: Option<String>,
    jobs: Option<usize>,
    profile: Option<RunProfile>,
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
    outliers: String,
    events: usize,
    /// `perf --json <PATH>`.
    json: Option<String>,
    /// `perf --check <PATH>`: the baseline to gate against.
    baseline: Option<String>,
    max_regress: f64,
}

impl Default for Cli {
    fn default() -> Self {
        Self {
            command: "help".into(),
            figure: None,
            jobs: None,
            profile: None,
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
            outliers: "results/outliers".into(),
            events: 65_536,
            json: None,
            baseline: None,
            max_regress: 20.0,
        }
    }
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter().peekable();
    cli.command = it.next().cloned().unwrap_or_else(|| "help".into());
    // A scenario file applies first so explicit flags override it.
    if let Some(i) = args.iter().position(|a| a == "--scenario") {
        check_point_flag(&cli.command, "--scenario")?;
        let path = args.get(i + 1).ok_or("flag --scenario needs a value")?;
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        cli.scenario = Scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    }
    if cli.command == "figure" {
        cli.figure = Some(
            it.next()
                .filter(|a| !a.starts_with("--"))
                .cloned()
                .ok_or_else(|| "command `figure` needs a name (see `sweeper figures`)".to_string())?,
        );
    }
    // `check` takes an *optional* positional figure name; peek so a flag in
    // that position is left for the flag loop.
    if cli.command == "check" && it.peek().is_some_and(|a| !a.starts_with("--")) {
        cli.figure = it.next().cloned();
    }
    while let Some(flag) = it.next() {
        let flag = flag.as_str();
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        if let Some(&(_, key)) = POINT_FLAGS.iter().find(|(f, _)| *f == flag) {
            check_point_flag(&cli.command, flag)?;
            let v = if is_switch(flag) { "true".into() } else { value()? };
            cli.scenario
                .set(key, &v)
                .map_err(|e| format!("{flag}: {e}"))?;
            continue;
        }
        match flag {
            "--scenario" => {
                value()?; // applied before the loop
            }
            "--requests" => cli.requests = num(flag, &value()?)?,
            "--lo" => cli.lo = num(flag, &value()?)?,
            "--hi" => cli.hi = num(flag, &value()?)?,
            "--points" => cli.points = num(flag, &value()?)?,
            "--jobs" => cli.jobs = Some(num(flag, &value()?)?),
            "--profile" => cli.profile = Some(value()?.parse()?),
            "--validate" => cli.validate = true,
            "--walk-every" => cli.walk_every = Some(num(flag, &value()?)?),
            "--format" => cli.format = value()?.parse()?,
            "--timeseries" => cli.timeseries = Some(value()?),
            "--sample-every" => cli.sample_every = Some(num(flag, &value()?)?),
            "--trace-spans" => cli.trace_spans = true,
            "--perfetto" => cli.perfetto = Some(value()?),
            "--profiler" => cli.profiler = true,
            "--flight-recorder" => cli.flight_recorder = true,
            "--flight-quantile" => cli.flight_quantile = Some(num(flag, &value()?)?),
            "--outliers" => cli.outliers = value()?,
            "--events" => cli.events = num(flag, &value()?)?,
            "--json" => cli.json = Some(value()?),
            "--check" => cli.baseline = Some(value()?),
            "--max-regress" => cli.max_regress = num(flag, &value()?)?,
            other => return Err(format!("unknown flag '{other}' (see `sweeper help`)")),
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
    if cli.events == 0 {
        return Err("--events must be positive".to_string());
    }
    if cli.requests == 0 {
        return Err("--requests must be at least 1".to_string());
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
    s.parse().map_err(|_| format!("{flag}: invalid number '{s}'"))
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
    if cli.timeseries.is_some() || cli.sample_every.is_some() {
        let every = cli.sample_every.unwrap_or(1_000_000);
        cfg = cfg.sampling(SamplerConfig::every(every));
    }
    if cli.trace_spans || cli.perfetto.is_some() {
        cfg = cfg.spans(cli.events);
    }
    if cli.profiler {
        cfg = cfg.profiler();
    }
    if cli.flight_recorder {
        cfg = cfg.flight(FlightRecorderConfig {
            quantile: cli.flight_quantile.unwrap_or(FlightRecorderConfig::default().quantile),
            ..FlightRecorderConfig::default()
        });
    }
    if cli.validate {
        cfg = cfg.check(check_config(cli));
    }
    if cli.command == "trace" {
        cfg = cfg.memtrace(cli.events);
    }
    cfg.server_config().validate()?;
    Ok(scenario_experiment(cfg, s))
}

fn print_report(report: &RunReport) {
    print!("{}", text_report(report, ReportStyle::default()));
}

/// Prints the `--validate` verdict for one report to stderr; `false` means
/// the harness saw violations (the caller fails the exit code).
fn check_passed(label: &str, report: &RunReport) -> bool {
    let Some(check) = &report.check else {
        return true;
    };
    if check.passed() {
        eprintln!(
            "validate [{label}]: pass ({} events mirrored, {} walks)",
            check.events, check.walks
        );
        return true;
    }
    eprintln!(
        "validate [{label}]: FAIL — {} violation(s)",
        check.total_violations()
    );
    for (kind, n) in &check.violations {
        if *n > 0 {
            eprintln!("  {n} x {kind}");
        }
    }
    for detail in &check.details {
        eprintln!("  {detail}");
    }
    false
}

/// The manifest attached to this invocation's exports.
fn cli_manifest(cli: &Cli, exp: &Experiment) -> RunManifest {
    let mut m = RunManifest::new()
        .config(exp.config().summary())
        .workload(cli.scenario.workload.name())
        .seed(cli.scenario.seed)
        .scenario(cli.scenario.to_text());
    if let Some(profile) = cli.profile {
        m = m.profile(profile.to_string());
    }
    m
}

/// Prints one run report in the requested `--format`.
fn emit_report(report: &RunReport, format: OutputFormat, manifest: &RunManifest) {
    match format {
        OutputFormat::Text => print_report(report),
        OutputFormat::Json => {
            let doc = run_document(report, ReportStyle::default(), manifest);
            println!("{}", doc.to_json_pretty());
        }
        OutputFormat::Csv => {
            let mut sink = CsvSink::new().with_comments(&manifest.to_comments());
            emit(report, ReportStyle::default(), &mut sink);
            print!("{}", sink.finish());
        }
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
        format!("{}\n", timeseries_document(ts, manifest).to_json_pretty())
    };
    std::fs::write(path, out).map_err(|e| format!("cannot write {path}: {e}"))?;
    eprintln!("wrote time series ({} samples) to {path}", ts.len());
    Ok(())
}

/// Writes the `--perfetto` span export and the flight recorder's outlier
/// snapshots (`--outliers <DIR>/<n>.json`), when the flags enabled them.
fn write_observability(cli: &Cli, report: &RunReport, manifest: &RunManifest) -> Result<(), String> {
    if let Some(path) = &cli.perfetto {
        let spans = report
            .spans
            .as_ref()
            .ok_or("run produced no spans (span recording was not enabled)")?;
        let doc = perfetto_document(spans, manifest);
        std::fs::write(path, format!("{}\n", doc.to_json_pretty()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!(
            "wrote perfetto trace ({} spans retained of {} recorded) to {path}",
            spans.len(),
            spans.recorded()
        );
    }
    if let Some(outliers) = &report.outliers {
        let dir = std::path::Path::new(&cli.outliers);
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for snapshot in outliers {
            let path = dir.join(format!("{}.json", snapshot.seq));
            let doc = outlier_document(snapshot, manifest);
            std::fs::write(&path, format!("{}\n", doc.to_json_pretty()))
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
        profile: cli.profile.unwrap_or_default(),
        seed: cli.scenario.seed,
        fleet: cli.jobs.map(Fleet::new).unwrap_or_default(),
        format: cli.format,
    }
}

/// `sweeper perf`: measure the simulator-throughput benchmark and print
/// (and with `--json`, write) its record, or with `--check` re-measure
/// under a committed baseline's profile and fail on a regression beyond
/// `--max-regress` percent.
fn run_perf(cli: &Cli) -> ExitCode {
    if let Some(path) = &cli.baseline {
        let baseline = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))
            .and_then(|text| perf::baseline(&text).map_err(|e| format!("baseline {path}: {e}")));
        let (base_rate, base_profile) = match baseline {
            Ok(b) => b,
            Err(e) => return usage_error(&e),
        };
        let m = perf::measure(base_profile);
        let delta = (m.accesses_per_sec / base_rate - 1.0) * 100.0;
        println!(
            "perf check [{}]: {:.2} M accesses/s vs baseline {:.2} M ({:+.1}%)",
            base_profile,
            m.accesses_per_sec / 1e6,
            base_rate / 1e6,
            delta
        );
        if delta < -cli.max_regress {
            eprintln!(
                "FAIL: simulator throughput regressed more than {}%",
                cli.max_regress
            );
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    let m = perf::measure(cli.profile.unwrap_or(RunProfile::Fast));
    println!(
        "fig1_kvs_e2e [{}]: {} simulated accesses in {:.2}s = {:.2} M accesses/s ({} requests)",
        m.profile,
        m.accesses,
        m.wall_secs,
        m.accesses_per_sec / 1e6,
        m.completed
    );
    if let Some(path) = &cli.json {
        let json = format!("{}\n", m.to_record().to_json_pretty());
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }
    ExitCode::SUCCESS
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
            print!("{HELP}");
            ExitCode::SUCCESS
        }
        "info" => {
            let m = MachineConfig::paper_default();
            println!("cores      : {} @ 3.2 GHz", m.cores);
            println!(
                "L1d        : {} KB {}-way, {} cycles",
                m.l1.size_bytes / 1024,
                m.l1.ways,
                m.l1.latency
            );
            println!(
                "L2         : {:.2} MB {}-way, {} cycles",
                m.l2.size_bytes as f64 / 1048576.0,
                m.l2.ways,
                m.l2.latency
            );
            println!(
                "LLC        : {} MB {}-way, {} cycles (+{} NoC), DDIO {} ways",
                m.llc.size_bytes / 1048576,
                m.llc.ways,
                m.llc.latency,
                m.noc_latency,
                m.ddio_ways
            );
            println!(
                "memory     : DDR4-3200, {} channels x {} ranks x {} banks ({:.1} GB/s peak)",
                m.dram.channels,
                m.dram.ranks_per_channel,
                m.dram.banks_per_rank,
                m.dram.peak_bandwidth_gbps()
            );
            ExitCode::SUCCESS
        }
        "run" => match build_experiment(&cli) {
            Ok(exp) => {
                let t = std::time::Instant::now();
                let report = exp.run_at_rate(cli.scenario.rate_mrps * 1e6);
                let manifest = cli_manifest(&cli, &exp).wall_secs(t.elapsed().as_secs_f64());
                if let Err(e) = write_timeseries(&cli, &report, &manifest)
                    .and_then(|()| write_observability(&cli, &report, &manifest))
                {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                if cli.format == OutputFormat::Text {
                    println!(
                        "== {} @ {:.1} Mrps offered ==",
                        cli.scenario.workload.name(),
                        cli.scenario.rate_mrps
                    );
                }
                emit_report(&report, cli.format, &manifest);
                if !check_passed("run", &report) {
                    return ExitCode::FAILURE;
                }
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(&e),
        },
        "peak" => match build_experiment(&cli) {
            Ok(exp) => {
                let t = std::time::Instant::now();
                let peak = exp.find_peak(PeakCriteria::default());
                let manifest = cli_manifest(&cli, &exp).wall_secs(t.elapsed().as_secs_f64());
                if let Err(e) = write_timeseries(&cli, &peak.report, &manifest)
                    .and_then(|()| write_observability(&cli, &peak.report, &manifest))
                {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                match cli.format {
                    OutputFormat::Text => {
                        println!(
                            "peak: {:.2} Mrps (SLO = {} cycles = 100 x {:.0}-cycle unloaded service)",
                            peak.throughput_mrps(),
                            peak.slo_cycles,
                            peak.unloaded_service_cycles
                        );
                        print_report(&peak.report);
                    }
                    OutputFormat::Json => {
                        let doc = run_document(&peak.report, ReportStyle::default(), &manifest)
                            .with(
                                "peak",
                                Record::new()
                                    .with("rate_mrps", peak.throughput_mrps())
                                    .with("slo_cycles", peak.slo_cycles)
                                    .with(
                                        "unloaded_service_cycles",
                                        peak.unloaded_service_cycles,
                                    ),
                            );
                        println!("{}", doc.to_json_pretty());
                    }
                    OutputFormat::Csv => {
                        let mut comments = manifest.to_comments();
                        comments.push((
                            "peak_mrps".to_string(),
                            format!("{:.2}", peak.throughput_mrps()),
                        ));
                        let mut sink = CsvSink::new().with_comments(&comments);
                        emit(&peak.report, ReportStyle::default(), &mut sink);
                        print!("{}", sink.finish());
                    }
                }
                if !check_passed("peak", &peak.report) {
                    return ExitCode::FAILURE;
                }
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(&e),
        },
        "sweep" => match build_experiment(&cli) {
            Ok(exp) => {
                // A sweep retains per-point summaries, not reports, so
                // there is nothing to export span windows from.
                if cli.perfetto.is_some() || cli.flight_recorder {
                    eprintln!(
                        "error: --perfetto/--flight-recorder need a single-run \
                         command (run, peak); a sweep does not retain per-point reports"
                    );
                    return ExitCode::FAILURE;
                }
                let grid = RateGrid::geometric(cli.lo * 1e6, cli.hi * 1e6, cli.points);
                let t = std::time::Instant::now();
                // Every rate runs, whatever the worker count; the reports
                // carry the check sections of a validated sweep.
                let (sweep, reports) = LoadSweep::run(&exp, &grid, &fig_context(&cli).fleet);
                let manifest = cli_manifest(&cli, &exp).wall_secs(t.elapsed().as_secs_f64());
                match cli.format {
                    // `text` keeps the historical bare-CSV stdout contract.
                    OutputFormat::Text => print!("{}", sweep.to_csv()),
                    OutputFormat::Csv => {
                        print!("{}", sweep.to_csv_with_comments(&manifest.to_comments()));
                    }
                    OutputFormat::Json => {
                        let doc =
                            document(LOADSWEEP_SCHEMA, &manifest, "sweep", sweep.to_record());
                        println!("{}", doc.to_json_pretty());
                    }
                }
                if let Some(knee) = sweep.knee() {
                    eprintln!("knee at ~{:.1} Mrps offered", knee.offered_rate / 1e6);
                }
                let mut all_pass = true;
                for (&rate, report) in grid.rates().iter().zip(&reports) {
                    let label = format!("{:.1} Mrps", rate / 1e6);
                    all_pass &= check_passed(&label, report);
                }
                if !all_pass {
                    return ExitCode::FAILURE;
                }
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(&e),
        },
        "trace" => match build_experiment(&cli) {
            Ok(exp) => {
                let t = std::time::Instant::now();
                let report = exp.run_at_rate(cli.scenario.rate_mrps * 1e6);
                let manifest = cli_manifest(&cli, &exp).wall_secs(t.elapsed().as_secs_f64());
                if let Err(e) = write_timeseries(&cli, &report, &manifest)
                    .and_then(|()| write_observability(&cli, &report, &manifest))
                {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
                let trace = report
                    .memtrace
                    .as_ref()
                    .expect("the trace command always enables memory tracing");
                // The CSV goes to stdout so it pipes cleanly; the run
                // summary goes to stderr.
                print!("{}", trace.to_csv_with_comments(&manifest.to_comments()));
                eprintln!(
                    "traced {} memory events ({} retained) over {} requests at {:.1} Mrps",
                    trace.recorded(),
                    trace.events().len(),
                    report.completed,
                    report.throughput_mrps()
                );
                ExitCode::SUCCESS
            }
            Err(e) => usage_error(&e),
        },
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
        "perf" => run_perf(&cli),
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
            let mut totals = [0u64; ViolationKind::ALL.len()];
            let mut figure_records: Vec<Value> = Vec::new();
            for figure in figures {
                let points = figure.points(ctx.profile, ctx.seed);
                let n = points.len();
                let outcomes = ctx.fleet.run_validation(points, check);
                let mut counts = [0u64; ViolationKind::ALL.len()];
                let (mut events, mut walks) = (0u64, 0u64);
                let mut failed: Vec<String> = Vec::new();
                let mut details: Vec<String> = Vec::new();
                for outcome in &outcomes {
                    let Some(c) = &outcome.report.check else {
                        continue;
                    };
                    events += c.events;
                    walks += c.walks;
                    if !c.passed() {
                        failed.push(outcome.label.clone());
                    }
                    for (kind, count) in &c.violations {
                        counts[kind.index()] += count;
                    }
                    for detail in &c.details {
                        if details.len() < 8 {
                            details.push(format!("{}: {detail}", outcome.label));
                        }
                    }
                }
                let total: u64 = counts.iter().sum();
                for (sum, &count) in totals.iter_mut().zip(&counts) {
                    *sum += count;
                }
                if total == 0 {
                    println!(
                        "{:<10} pass  ({n} points, {events} events mirrored, {walks} walks)",
                        figure.name()
                    );
                } else {
                    println!(
                        "{:<10} FAIL  ({total} violations across {} of {n} points)",
                        figure.name(),
                        failed.len()
                    );
                    for detail in &details {
                        println!("    {detail}");
                    }
                }
                let mut violations = Record::new();
                for (kind, &count) in ViolationKind::ALL.iter().zip(&counts) {
                    if count > 0 {
                        violations.push(kind.name(), count);
                    }
                }
                figure_records.push(Value::from(
                    Record::new()
                        .with("figure", figure.name())
                        .with("points", n as u64)
                        .with("events", events)
                        .with("walks", walks)
                        .with("violations_total", total)
                        .with("violations", violations)
                        .with(
                            "failed_points",
                            failed
                                .iter()
                                .map(|label| Value::from(label.as_str()))
                                .collect::<Vec<_>>(),
                        ),
                ));
            }
            println!("per-invariant summary:");
            for (kind, &total) in ViolationKind::ALL.iter().zip(&totals) {
                if total == 0 {
                    println!("  {:<30} pass", kind.name());
                } else {
                    println!("  {:<30} FAIL ({total})", kind.name());
                }
            }
            if cli.format == OutputFormat::Json {
                let manifest = RunManifest::new()
                    .profile(ctx.profile.to_string())
                    .seed(ctx.seed);
                let doc = check_document(figure_records, &manifest);
                println!("{}", doc.to_json_pretty());
            }
            if totals.iter().all(|&n| n == 0) {
                println!("check: all invariants pass");
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
            assert_ne!(Scenario::parse(field).unwrap(), Scenario::default(), "{field}");
        }
        let text = s.to_text();
        let mut all = args(&["run"]);
        for field in text.lines() {
            let (key, value) = field.split_once(" = ").unwrap();
            let &(flag, _) = POINT_FLAGS
                .iter()
                .find(|(_, k)| *k == key)
                .unwrap_or_else(|| panic!("scenario key '{key}' has no flag"));
            let mut one = args(&["run", flag]);
            if is_switch(flag) {
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
        assert_eq!(POINT_FLAGS.len(), text.lines().count());
    }

    #[test]
    fn point_flag_errors_name_the_flag() {
        let err = parse(&args(&["run", "--ddio", "20"])).unwrap_err();
        assert_eq!(err, "--ddio: 20 outside [1, 12]");
        let err = parse(&args(&["run", "--rate", "nan"])).unwrap_err();
        assert_eq!(err, "--rate: invalid rate 'nan'");
    }
}
