//! The `sweeper` binary must reject malformed command lines with a one-line
//! error plus usage on stderr and exit code 2 — never a panic backtrace —
//! and must describe a run point the same way from a scenario file and from
//! flags, on the commands that take one.

use std::process::Command;

use sweeper::core::scenario::Scenario;

fn run(args: &[&str]) -> (std::process::ExitStatus, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweeper"))
        .args(args)
        .output()
        .expect("spawn sweeper");
    (
        out.status,
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Runs `sweeper` and returns its stdout, failing the test on a non-zero
/// exit.
fn stdout_of(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_sweeper"))
        .args(args)
        .output()
        .expect("spawn sweeper");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Asserts `stderr` holds exactly one `error:` line and no panic.
fn assert_one_error_line(args: &[&str], stderr: &str) {
    assert_eq!(
        stderr.lines().filter(|l| l.starts_with("error:")).count(),
        1,
        "{args:?} should print one error line, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must not panic, got: {stderr}"
    );
}

fn assert_usage_error(args: &[&str]) {
    let (status, stderr) = run(args);
    assert_eq!(
        status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {stderr}"
    );
    assert_one_error_line(args, &stderr);
    assert!(
        stderr.contains("usage:"),
        "{args:?} should print usage, got: {stderr}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["run", "--no-such-flag"]);
}

#[test]
fn unknown_command_is_a_usage_error() {
    assert_usage_error(&["frobnicate"]);
}

#[test]
fn flag_missing_its_value_is_a_usage_error() {
    assert_usage_error(&["run", "--rate"]);
}

#[test]
fn non_numeric_value_is_a_usage_error() {
    assert_usage_error(&["run", "--rate", "fast"]);
}

#[test]
fn walk_every_without_validate_is_a_usage_error() {
    assert_usage_error(&["run", "--walk-every", "64"]);
}

#[test]
fn check_rejects_unknown_figure() {
    let (status, stderr) = run(&["check", "no-such-figure"]);
    assert_eq!(status.code(), Some(2), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
}

#[test]
fn figure_rejects_unknown_figure() {
    assert_usage_error(&["figure", "fig99"]);
}

#[test]
fn out_of_range_configs_are_usage_errors() {
    // Each used to reach an assert inside the simulator and exit 101 with a
    // backtrace; validation now rejects them before anything is built.
    for command in ["run", "peak", "sweep"] {
        for bad in [
            ["--cores", "100"],
            ["--ddio", "20"],
            ["--buffers", "0"],
            ["--channels", "0"],
            ["--rate", "0"],
            ["--rate", "-5"],
            ["--rate", "nan"],
            ["--requests", "0"],
            ["--packet", "0"],
            ["--points", "0"],
            ["--points", "1"],
            ["--lo", "0"],
            ["--hi", "1"],
        ] {
            assert_usage_error(&[command, bad[0], bad[1]]);
        }
        assert_usage_error(&[command, "--lo", "10", "--hi", "5"]);
    }
}

#[test]
fn cores_are_checked_against_the_paper_machine() {
    // The scenario accepts exactly the cores the paper machine has, so a
    // count past it gets the same flag error as any other range.
    for command in ["run", "peak", "sweep"] {
        let args = [command, "--cores", "30"];
        assert_usage_error(&args);
        let (_, stderr) = run(&args);
        assert!(
            stderr.contains("--cores") && stderr.contains("[1, 24]"),
            "{args:?} should name the flag and its range, got: {stderr}"
        );
    }
}

#[test]
fn perf_rejects_malformed_command_lines() {
    // Host speed is measured by hostbench, so `perf` is no longer a command
    // and every command line that once ran it is a usage error.
    assert_usage_error(&["perf"]);
    let (_, stderr) = run(&["perf"]);
    assert!(
        stderr.contains("error: unknown command 'perf'"),
        "got: {stderr}"
    );
    assert_usage_error(&["perf", "--no-such-flag"]);
    assert_usage_error(&["perf", "--profile", "warp-speed"]);
    assert_usage_error(&["perf", "--json"]);
    assert_usage_error(&["perf", "--check", "/nonexistent/baseline.json"]);
    assert_usage_error(&["perf", "--max-regress", "20"]);
}

#[test]
fn perf_reports_an_unwritable_json_path() {
    // `--json` went with `perf`: the command line is rejected as a usage
    // error before any path is opened, so there is no write error to report.
    let args = [
        "perf",
        "--profile",
        "smoke",
        "--json",
        "/nonexistent/dir/x.json",
    ];
    assert_usage_error(&args);
    let (_, stderr) = run(&args);
    assert!(!stderr.contains("cannot write"), "got: {stderr}");
}

#[test]
fn flags_override_a_scenario_file() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_args_point.scn");
    std::fs::write(
        &path,
        "ddio_ways = 4\ncores = 2\nbuffers = 64\nrate_mrps = 5\n",
    )
    .unwrap();
    let stdout = stdout_of(&[
        "run",
        "--scenario",
        path.to_str().unwrap(),
        "--ddio",
        "3",
        "--requests",
        "200",
        "--format",
        "json",
    ]);
    assert!(
        stdout.contains(r#""config": "ddio3 rx=64 pkt=1088 ch=4""#),
        "manifest config should be the file's point with --ddio applied:\n{stdout}"
    );
}

#[test]
fn sweep_output_is_independent_of_jobs() {
    let sweep = |jobs: &str| {
        stdout_of(&[
            "sweep",
            "--cores",
            "4",
            "--buffers",
            "128",
            "--requests",
            "1000",
            "--lo",
            "2",
            "--hi",
            "200",
            "--points",
            "5",
            "--jobs",
            jobs,
        ])
    };
    let one = sweep("1");
    assert_eq!(one.lines().count(), 1 + 5, "every rate is a row:\n{one}");
    assert_eq!(
        one,
        sweep("2"),
        "--jobs 1 and --jobs 2 must print the same sweep"
    );
}

#[test]
fn point_flags_are_rejected_where_points_are_fixed() {
    for command in [&["figure", "fig2"][..], &["check"], &["check", "fig2"]] {
        for flag in [
            &["--ddio", "7"][..],
            &["--sweeper"],
            &["--rate", "5"],
            &["--scenario", "x.scn"],
        ] {
            assert_usage_error(&[command, flag].concat());
        }
    }
    for command in ["figures", "info"] {
        for flag in [&["--ddio", "7"][..], &["--seed", "3"], &["--zero-copy"]] {
            assert_usage_error(&[&[command][..], flag].concat());
        }
    }
}

#[test]
fn run_manifest_scenario_reproduces_the_run() {
    let first = stdout_of(&[
        "run",
        "--format",
        "json",
        "--cores",
        "4",
        "--requests",
        "2000",
    ]);
    let key = "\"scenario\": \"";
    let start = first.find(key).expect("manifest carries the scenario") + key.len();
    let end = start + first[start..].find('"').expect("closing quote");
    let text = first[start..end].replace("\\n", "\n");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_args_manifest.scn");
    std::fs::write(&path, &text).unwrap();
    let again = stdout_of(&[
        "run",
        "--scenario",
        path.to_str().unwrap(),
        "--requests",
        "2000",
        "--format",
        "json",
    ]);
    let report = |doc: &str| doc[doc.find("\"report\":").expect("report section")..].to_string();
    assert_eq!(
        report(&first),
        report(&again),
        "the manifest's scenario must replay the run"
    );
}

#[test]
fn scenario_files_parse_and_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("scenarios/ exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "scn") {
            let text = std::fs::read_to_string(&path).unwrap();
            let s = Scenario::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(
                Scenario::parse(&s.to_text()).unwrap(),
                s,
                "{}",
                path.display()
            );
            files += 1;
        }
    }
    assert!(files > 0, "no scenario files found");
}

#[test]
fn single_run_flags_are_rejected_elsewhere() {
    // Sweeps and figures keep per-point summaries only, so these flags used
    // to be dropped without a word (or fail after the whole build).
    for command in [
        &["sweep"][..],
        &["figure", "fig2"],
        &["check"],
        &["figures"],
        &["info"],
    ] {
        for flag in [
            &["--timeseries", "ts.csv"][..],
            &["--sample-every", "1000"],
            &["--trace-spans"],
            &["--perfetto", "p.json"],
            &["--profiler"],
            &["--flight-recorder"],
            &["--outliers", "out"],
        ] {
            let args = [command, flag].concat();
            assert_usage_error(&args);
            let (_, stderr) = run(&args);
            assert!(
                stderr.contains(flag[0]),
                "{args:?} should name the flag, got: {stderr}"
            );
        }
    }
}

#[test]
fn outliers_without_flight_recorder_is_a_usage_error() {
    assert_usage_error(&["run", "--outliers", "out"]);
}

#[test]
fn sample_every_without_timeseries_is_a_usage_error() {
    // The samples reach only the time series file, so a period without one
    // used to run a sampler whose output went nowhere.
    for command in ["run", "peak", "trace"] {
        let args = [command, "--sample-every", "100000"];
        assert_usage_error(&args);
        let (_, stderr) = run(&args);
        assert!(
            stderr.contains("--sample-every needs --timeseries"),
            "{args:?} should name both flags, got: {stderr}"
        );
    }
}

#[test]
fn bad_observer_values_name_their_flag() {
    // `--sample-every 0` used to pass the parser and fail in the server's
    // configuration check with a message that named no flag.
    for command in ["run", "peak", "trace"] {
        for (bad, flag) in [
            (
                &["--timeseries", "ts.csv", "--sample-every", "0"][..],
                "--sample-every",
            ),
            (
                &["--flight-recorder", "--flight-quantile", "0"],
                "--flight-quantile",
            ),
            (
                &["--flight-recorder", "--flight-quantile", "1"],
                "--flight-quantile",
            ),
            (&["--trace-spans", "--events", "0"], "--events"),
        ] {
            let args = [&[command][..], bad].concat();
            assert_usage_error(&args);
            let (_, stderr) = run(&args);
            assert!(
                stderr
                    .lines()
                    .any(|l| l.starts_with("error:") && l.contains(flag)),
                "{args:?} should name {flag}, got: {stderr}"
            );
        }
    }
}

#[test]
fn events_without_a_span_ring_is_a_usage_error() {
    // Off `trace`, only the span ring reads `--events`, so without spans
    // it used to be dropped without a word.
    let args = [
        "run",
        "--cores",
        "2",
        "--buffers",
        "64",
        "--requests",
        "200",
        "--rate",
        "2",
        "--events",
        "5",
    ];
    assert_usage_error(&args);
    let (_, stderr) = run(&args);
    assert!(
        stderr.contains("--events"),
        "{args:?} should name the flag, got: {stderr}"
    );
}

#[test]
fn removed_synthetic_workload_is_a_usage_error() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_args_synthetic.scn");
    std::fs::write(&path, "workload = synthetic\n").unwrap();
    for args in [
        &["run", "--workload", "synthetic"][..],
        &["run", "--scenario", path.to_str().unwrap()],
    ] {
        assert_usage_error(args);
        let (_, stderr) = run(args);
        assert!(
            stderr.contains("unknown workload"),
            "{args:?} should reject the workload, got: {stderr}"
        );
    }
}

#[test]
fn rx_footprint_past_the_address_limit_is_a_usage_error() {
    // Each flag is in range, but 24 x 4096 x 2^20 buffers of 64 KiB would
    // be far past the 32 GiB simulated address space. The point is rejected
    // before its rings are allocated (they would exhaust host memory).
    for command in ["run", "peak", "trace", "sweep"] {
        let args = [command, "--cores", "24", "--endpoints", "4096"];
        let args = [&args[..], &["--buffers", "1048576", "--packet", "65536"]].concat();
        assert_usage_error(&args);
        let (_, stderr) = run(&args);
        assert!(
            stderr.contains("address limit") && stderr.contains("34359738368 bytes"),
            "{args:?} should name the limit, got: {stderr}"
        );
    }
}

#[test]
fn trace_reports_its_validate_verdict() {
    let out = Command::new(env!("CARGO_BIN_EXE_sweeper"))
        .args([
            "trace",
            "--cores",
            "4",
            "--buffers",
            "128",
            "--requests",
            "500",
            "--rate",
            "5",
            "--events",
            "1024",
            "--validate",
        ])
        .output()
        .expect("spawn sweeper");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("validate [trace]: pass")),
        "trace --validate should report its verdict, got: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("cycle,kind,core,block,blocks,latency"));
}

#[test]
fn check_json_stdout_is_one_document() {
    let args: Vec<&str> = "check outliers --profile smoke --jobs 1 --format json"
        .split(' ')
        .collect();
    let stdout = stdout_of(&args);
    let one_document = stdout.starts_with('{') && stdout.ends_with("}\n");
    let tagged = stdout.contains(r#""schema": "sweeper.check/1""#);
    let has_text = stdout.contains("per-invariant summary:");
    assert!(one_document && tagged && !has_text, "{stdout}");
}

#[test]
fn run_json_stdout_ends_in_one_newline() {
    // The document already ends in a newline; printing it with `println!`
    // left a blank line after the closing brace.
    let args: Vec<&str> = "run --cores 4 --requests 500 --format json"
        .split(' ')
        .collect();
    let stdout = stdout_of(&args);
    assert!(
        stdout.ends_with("}\n") && !stdout.ends_with("}\n\n"),
        "{:?}",
        &stdout[stdout.len().saturating_sub(8)..]
    );
}

#[test]
fn flags_a_command_does_not_read_are_usage_errors() {
    // Each of these used to exit 0 with the flag ignored, or for `--jobs 0`
    // clamped to one worker, or for `check --format csv` printed as text.
    for (args, flag) in [
        (
            &["info", "--events", "10", "--requests", "5", "--points", "3"][..],
            "--events",
        ),
        (
            &[
                "trace",
                "--cores",
                "4",
                "--buffers",
                "128",
                "--requests",
                "300",
                "--rate",
                "5",
                "--format",
                "json",
            ],
            "--format",
        ),
        (&["run", "--profile", "smoke"], "--profile"),
        (&["run", "--jobs", "2"], "--jobs"),
        (&["figure", "fig2", "--requests", "5"], "--requests"),
        (&["sweep", "--jobs", "0"], "--jobs"),
        (&["figure", "fig2", "--jobs", "0"], "--jobs"),
        (&["check", "--format", "csv"], "--format"),
    ] {
        assert_usage_error(args);
        let (_, stderr) = run(args);
        assert!(
            stderr.contains(flag),
            "{args:?} should name {flag}, got: {stderr}"
        );
    }
}
