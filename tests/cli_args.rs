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
    (out.status, String::from_utf8_lossy(&out.stderr).into_owned())
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
fn perf_rejects_malformed_command_lines() {
    assert_usage_error(&["perf", "--no-such-flag"]);
    assert_usage_error(&["perf", "--profile", "warp-speed"]);
    assert_usage_error(&["perf", "--json"]);
    assert_usage_error(&["perf", "--check", "/nonexistent/baseline.json"]);
}

#[test]
fn perf_reports_an_unwritable_json_path() {
    let args = ["perf", "--profile", "smoke", "--json", "/nonexistent/dir/x.json"];
    let (status, stderr) = run(&args);
    assert_eq!(status.code(), Some(1), "stderr: {stderr}");
    assert_one_error_line(&args, &stderr);
    assert!(stderr.contains("error: cannot write"), "got: {stderr}");
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
        "run", "--scenario", path.to_str().unwrap(), "--ddio", "3", "--requests", "200",
        "--format", "json",
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
            "sweep", "--cores", "4", "--buffers", "128", "--requests", "1000", "--lo", "2",
            "--hi", "200", "--points", "5", "--jobs", jobs,
        ])
    };
    let one = sweep("1");
    assert_eq!(one.lines().count(), 1 + 5, "every rate is a row:\n{one}");
    assert_eq!(one, sweep("2"), "--jobs 1 and --jobs 2 must print the same sweep");
}

#[test]
fn point_flags_are_rejected_where_points_are_fixed() {
    for command in [&["figure", "fig2"][..], &["check"], &["check", "fig2"]] {
        for flag in [&["--ddio", "7"][..], &["--sweeper"], &["--rate", "5"], &["--scenario", "x.scn"]]
        {
            assert_usage_error(&[command, flag].concat());
        }
    }
    for command in ["figures", "perf", "info"] {
        for flag in [&["--ddio", "7"][..], &["--seed", "3"], &["--zero-copy"]] {
            assert_usage_error(&[&[command][..], flag].concat());
        }
    }
}

#[test]
fn run_manifest_scenario_reproduces_the_run() {
    let first = stdout_of(&["run", "--format", "json", "--cores", "4", "--requests", "2000"]);
    let key = "\"scenario\": \"";
    let start = first.find(key).expect("manifest carries the scenario") + key.len();
    let end = start + first[start..].find('"').expect("closing quote");
    let text = first[start..end].replace("\\n", "\n");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_args_manifest.scn");
    std::fs::write(&path, &text).unwrap();
    let again = stdout_of(&[
        "run", "--scenario", path.to_str().unwrap(), "--requests", "2000", "--format", "json",
    ]);
    let report = |doc: &str| doc[doc.find("\"report\":").expect("report section")..].to_string();
    assert_eq!(report(&first), report(&again), "the manifest's scenario must replay the run");
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
            assert_eq!(Scenario::parse(&s.to_text()).unwrap(), s, "{}", path.display());
            files += 1;
        }
    }
    assert!(files > 0, "no scenario files found");
}
