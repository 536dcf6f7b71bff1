//! The `sweeper` binary must reject malformed command lines with a one-line
//! error plus usage on stderr and exit code 2 — never a panic backtrace —
//! and must describe a run point the same way from a scenario file and from
//! flags.

use std::process::Command;

fn run(args: &[&str]) -> (std::process::ExitStatus, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweeper"))
        .args(args)
        .output()
        .expect("spawn sweeper");
    (out.status, String::from_utf8_lossy(&out.stderr).into_owned())
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
    let out = Command::new(env!("CARGO_BIN_EXE_sweeper"))
        .args(["run", "--scenario", path.to_str().unwrap()])
        .args(["--ddio", "3", "--requests", "200", "--format", "json"])
        .output()
        .expect("spawn sweeper");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains(r#""config": "ddio3 rx=64 pkt=1088 ch=4""#),
        "manifest config should be the file's point with --ddio applied:\n{stdout}"
    );
}
