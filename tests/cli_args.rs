//! The `sweeper` binary must reject malformed command lines with a one-line
//! error plus usage on stderr and exit code 2 — never a panic backtrace.

use std::process::Command;

fn run(args: &[&str]) -> (std::process::ExitStatus, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_sweeper"))
        .args(args)
        .output()
        .expect("spawn sweeper");
    (out.status, String::from_utf8_lossy(&out.stderr).into_owned())
}

fn assert_usage_error(args: &[&str]) {
    let (status, stderr) = run(args);
    assert_eq!(
        status.code(),
        Some(2),
        "{args:?} should exit 2, stderr: {stderr}"
    );
    assert!(
        stderr.contains("error:"),
        "{args:?} should print an error line, got: {stderr}"
    );
    assert!(
        stderr.contains("usage:"),
        "{args:?} should print usage, got: {stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?} must not panic, got: {stderr}"
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
fn out_of_range_configs_are_usage_errors() {
    // Each used to reach an assert inside the simulator and exit 101 with a
    // backtrace; validation now rejects them before anything is built.
    for command in ["run", "peak", "sweep"] {
        for bad in [
            ["--cores", "100"],
            ["--ddio", "20"],
            ["--buffers", "0"],
            ["--channels", "0"],
        ] {
            assert_usage_error(&[command, bad[0], bad[1]]);
        }
    }
}
