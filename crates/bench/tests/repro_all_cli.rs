//! Command-line behaviour of the `repro_all` binary on ordinary misuse
//! (a bad or retired flag, a reader that closes stdout early) and the
//! record count its run summary reports.

use std::process::{Command, Output, Stdio};

use simtime::SimDuration;

/// The seed `repro_all` runs every experiment with.
const SEED: u64 = 7;

fn repro_all(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro_all"));
    cmd.args(args).env("REPRO_SECONDS", "1");
    cmd
}

fn run(args: &[&str]) -> Output {
    repro_all(args).output().expect("spawn repro_all")
}

fn assert_usage_error(args: &[&str]) {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: stderr {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{args:?} must not run the reproduction"
    );
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.contains("usage: repro_all"), "{args:?}: {stderr}");
}

#[test]
fn unknown_flag_is_a_usage_error() {
    assert_usage_error(&["--bogus-flag"]);
}

#[test]
fn retired_parallel_analysis_flag_is_a_usage_error() {
    assert_usage_error(&["--des-threads=2"]);
    assert_usage_error(&["--des-threads", "2"]);
}

#[test]
fn flag_missing_its_value_is_a_usage_error() {
    assert_usage_error(&["--scale"]);
}

#[test]
fn closed_stdout_ends_the_output_cleanly() {
    let mut child = repro_all(&[])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro_all");
    // Close the read end before the binary prints its first artifact.
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for repro_all");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
    assert!(
        stderr.contains("run summary:"),
        "the run must still finish: {stderr}"
    );
}

#[test]
fn stage_summary_counts_trace_records() {
    let out = run(&[]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let printed: u64 = stderr
        .lines()
        .find(|l| l.starts_with("[telemetry] stage=repro_all."))
        .and_then(|l| {
            l.split_whitespace()
                .find_map(|f| f.strip_prefix("trace_records="))
        })
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no trace_records in the stage summary: {stderr}"));
    let specs = timerstudy::figures::paper_specs(SimDuration::from_secs(1), SEED);
    let records: u64 = timerstudy::run_experiments(&specs)
        .iter()
        .map(|r| r.records)
        .sum();
    assert!(records > 0);
    assert_eq!(printed, records);
}
