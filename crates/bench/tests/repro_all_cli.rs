//! Command-line behaviour of the reproduction binaries on ordinary
//! misuse (a bad or retired flag, an out-of-range value, a malformed
//! `REPRO_*` variable, an unusable output directory, a reader that closes
//! stdout early), the record count `repro_all`'s run summary reports, and
//! the `ext_*` outputs, pinned byte for byte by `tests/golden/<name>.txt`.
//! A change that moves an `ext_*` output on purpose regenerates its file
//! with
//!
//! ```sh
//! cargo run --release -p bench --bin ext_power > crates/bench/tests/golden/ext_power.txt
//! ```
//!
//! and EXPERIMENTS.md quotes the new numbers.

use std::path::Path;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

use simtime::SimDuration;

/// The seed `repro_all` runs every experiment with.
const SEED: u64 = 7;

/// A binary's name and path.
type Bin = (&'static str, &'static str);

const REPRO_ALL: Bin = ("repro_all", env!("CARGO_BIN_EXE_repro_all"));
const BENCH_ALL: Bin = ("bench_all", env!("CARGO_BIN_EXE_bench_all"));

/// Pairs each binary name with the path Cargo built it at.
macro_rules! bins {
    ($($name:literal),* $(,)?) => {
        [$(($name, env!(concat!("CARGO_BIN_EXE_", $name)))),*]
    };
}

/// The `ext_*` extension binaries, which run fixed-length experiments.
const EXT_BINS: [Bin; 4] = bins!(
    "ext_adaptive",
    "ext_adaptive_kernel",
    "ext_layering",
    "ext_power",
);

fn command((_, exe): Bin, args: &[&str]) -> Command {
    let mut cmd = Command::new(exe);
    cmd.args(args).env("REPRO_SECONDS", "1");
    cmd
}

fn run(args: &[&str]) -> Output {
    command(REPRO_ALL, args).output().expect("spawn repro_all")
}

/// Asserts `bin args` exits 2 with one stderr line and no stdout, and
/// returns that line.
fn assert_rejected(bin: Bin, args: &[&str]) -> String {
    assert_rejected_by(bin, command(bin, args), &format!("{args:?}"))
}

/// Asserts `cmd`, which runs `bin`, exits 2 with one stderr line and no
/// stdout, and returns that line. A rejection is immediate, so a child
/// still running after a minute is killed: it is running the
/// reproduction it should have refused.
fn assert_rejected_by(bin: Bin, mut cmd: Command, what: &str) -> String {
    let (name, _) = bin;
    let mut child = cmd
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn binary");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll binary").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("{name} {what}: still running instead of exiting 2");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect output");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{name} {what}: stderr {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{name} {what} must not run the reproduction"
    );
    assert_eq!(stderr.lines().count(), 1, "{name} {what}: {stderr}");
    stderr
}

fn assert_usage_error(bin: Bin, args: &[&str]) {
    let (name, _) = bin;
    let stderr = assert_rejected(bin, args);
    assert!(
        stderr.contains(&format!("usage: {name}")),
        "{name} {args:?}: {stderr}"
    );
}

#[test]
fn unknown_flag_is_a_usage_error() {
    for bin in std::iter::once(REPRO_ALL)
        .chain(EXT_BINS)
        .chain([BENCH_ALL])
    {
        assert_usage_error(bin, &["--bogus-flag"]);
    }
    // A typo in CI's gate must not run the suite and check nothing.
    assert_usage_error(BENCH_ALL, &["--chek=BENCH_baseline.json"]);
}

#[test]
fn retired_flags_are_usage_errors() {
    assert_usage_error(REPRO_ALL, &["--des-threads=2"]);
    assert_usage_error(REPRO_ALL, &["--des-threads", "2"]);
    assert_usage_error(REPRO_ALL, &["--collected"]);
    assert_usage_error(REPRO_ALL, &["--wheel-backend=heap"]);
    assert_usage_error(REPRO_ALL, &["--shards=4"]);
    assert_usage_error(REPRO_ALL, &["--serial"]);
    assert_usage_error(REPRO_ALL, &["--scale", "10"]);
    assert_usage_error(REPRO_ALL, &["--adaptive=fixed"]);
    assert_usage_error(REPRO_ALL, &["--adaptive=learned"]);
    assert_usage_error(REPRO_ALL, &["--top-origins"]);
    assert_usage_error(REPRO_ALL, &["--top-origins=5"]);
    assert_usage_error(REPRO_ALL, &["--timer-list", "1.5"]);
    assert_usage_error(REPRO_ALL, &["--timer-list=1.5,3"]);
}

#[test]
fn malformed_repro_variables_are_rejected() {
    // Each of these used to run a different reproduction and exit 0: the
    // first three a full 30-minute trace, the last two on every core.
    // 18446744074 s is just past u64::MAX nanoseconds.
    for (var, value) in [
        ("REPRO_SECONDS", "2s"),
        ("REPRO_SECONDS", "0"),
        ("REPRO_SECONDS", "18446744074"),
        ("REPRO_THREADS", "one"),
        ("REPRO_THREADS", "0"),
    ] {
        let mut cmd = command(REPRO_ALL, &[]);
        cmd.env(var, value);
        let stderr = assert_rejected_by(REPRO_ALL, cmd, &format!("with {var}={value}"));
        assert!(
            stderr.starts_with(&format!("{var}={value}: ")),
            "the error must name {var}: {stderr}"
        );
    }
}

#[test]
fn flag_missing_its_value_is_a_usage_error() {
    assert_usage_error(REPRO_ALL, &["--faults"]);
}

#[test]
fn unusable_output_directories_are_rejected_before_the_run() {
    // No user can create a directory under a regular file; permission
    // bits would not stop a run as root.
    let file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("a_regular_file");
    std::fs::write(&file, b"").expect("create a regular file");
    let dir = file.join("x");
    let dir = dir.to_str().expect("UTF-8 target directory");
    let metrics = format!("--metrics={dir}");
    for (flag, args) in [
        ("--artifacts", &["--artifacts", dir][..]),
        ("--metrics", &[metrics.as_str()][..]),
    ] {
        let stderr = assert_rejected(REPRO_ALL, args);
        assert!(
            stderr.starts_with(&format!("{flag} {dir}: ")),
            "the error must name {flag} and the directory: {stderr}"
        );
    }
}

#[test]
fn closed_stdout_ends_the_output_cleanly() {
    for bin in std::iter::once(REPRO_ALL).chain(EXT_BINS) {
        let (name, _) = bin;
        // Close the read end before the binary prints its first line.
        let (reader, writer) = std::io::pipe().expect("create pipe");
        drop(reader);
        let out = command(bin, &[])
            .stdout(writer)
            .stderr(Stdio::piped())
            .spawn()
            .and_then(|child| child.wait_with_output())
            .expect("run binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{name}: stderr {stderr}");
        assert!(!stderr.contains("panicked"), "{name}: stderr {stderr}");
        if bin == REPRO_ALL {
            assert!(
                stderr.contains("run summary:"),
                "the run must still finish: {stderr}"
            );
        }
    }
}

#[test]
fn ext_binaries_print_their_goldens() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    for bin in EXT_BINS {
        let (name, _) = bin;
        let out = command(bin, &[]).output().expect("run binary");
        assert!(out.status.success(), "{name} failed: {out:?}");
        let golden = dir.join(format!("{name}.txt"));
        let want = std::fs::read_to_string(&golden).expect("read the golden");
        let got = String::from_utf8(out.stdout).expect("UTF-8 output");
        if got != want {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
            panic!(
                "{name} differs from {} at line {}:\n  got:  {:?}\n  want: {:?}",
                golden.display(),
                line + 1,
                got.lines().nth(line).unwrap_or("<end of output>"),
                want.lines().nth(line).unwrap_or("<end of golden>"),
            );
        }
    }
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
