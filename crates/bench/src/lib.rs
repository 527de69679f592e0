//! Shared command-line plumbing of the `repro_all` reproduction binary,
//! the `ext_*` extension binaries and `bench_all`.

use std::io::Write;
use std::time::Instant;

use simtime::SimDuration;
use timerstudy::ExperimentResult;

/// How a flag takes its value.
#[derive(Debug, Clone, Copy)]
pub enum Takes {
    /// A bare switch.
    Nothing,
    /// Bare, or `--flag=VALUE`.
    Inline,
    /// `--flag VALUE`.
    Next,
}

/// Exits 2 with a one-line usage error on an unknown argument or a flag
/// missing its value, so a misspelt or retired flag never silently runs
/// the default reproduction. `args` is the whole command line, program
/// name first; `flags` lists every flag the binary reads, spelled the way
/// its parser reads it; `usage` is the binary's `usage: NAME ...` line.
pub fn check_args<S: AsRef<str>>(
    args: impl IntoIterator<Item = S>,
    flags: &[(&str, Takes)],
    usage: &str,
) {
    let mut rest = args.into_iter().skip(1);
    while let Some(arg) = rest.next() {
        let arg = arg.as_ref();
        let (name, inline) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg, false),
        };
        let ok = match flags.iter().find(|(flag, _)| *flag == name) {
            Some((_, Takes::Nothing)) => !inline,
            Some((_, Takes::Inline)) => true,
            Some((_, Takes::Next)) => !inline && rest.next().is_some(),
            None => false,
        };
        if !ok {
            eprintln!("bad argument `{arg}`; {usage}");
            std::process::exit(2);
        }
    }
}

/// The trace length `repro_all` runs: `REPRO_SECONDS`, or the paper's
/// 30 minutes when it is unset. Exits 2 with one stderr line
/// naming the variable when `REPRO_SECONDS` or `REPRO_THREADS` (the
/// worker count the pool reads) is set to anything but a positive
/// integer, or when `REPRO_SECONDS` is past the simulated clock's range:
/// a typo must never silently run a different reproduction.
pub fn repro_duration() -> SimDuration {
    positive_env("REPRO_THREADS");
    let Some(secs) = positive_env("REPRO_SECONDS") else {
        return timerstudy::PAPER_DURATION;
    };
    SimDuration::from_secs(1)
        .checked_mul(secs)
        .unwrap_or_else(|| {
            eprintln!("REPRO_SECONDS={secs}: past the simulated clock's range");
            std::process::exit(2);
        })
}

/// The value of environment variable `name` when set; exits 2 unless it
/// is a positive integer.
fn positive_env(name: &str) -> Option<u64> {
    let value = std::env::var_os(name)?;
    match value.to_str().and_then(|v| v.parse::<u64>().ok()) {
        Some(n) if n >= 1 => Some(n),
        _ => {
            eprintln!(
                "{name}={}: expected a positive integer",
                value.to_string_lossy()
            );
            std::process::exit(2);
        }
    }
}

/// Stdout that treats a closed reader (`BrokenPipe`) as the end of the
/// output: later lines are dropped and the run finishes normally.
#[derive(Debug, Default)]
pub struct Stdout {
    closed: bool,
}

impl Stdout {
    /// Prints `args`, unless the reader has gone away: the target of
    /// `write!(out, ...)` and `writeln!(out, ...)`.
    pub fn write_fmt(&mut self, args: std::fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        match std::io::stdout().lock().write_fmt(args) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => self.closed = true,
            Err(e) => {
                eprintln!("writing stdout: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Prints the one-line `[telemetry] stage=...` summary `repro_all` emits
/// when it finishes. Goes to stderr: stdout is reserved for the artifact
/// text, which the golden-output tests compare byte-for-byte.
pub fn print_stage_summary<'a>(
    stage: &str,
    results: impl IntoIterator<Item = &'a ExperimentResult>,
    started: Instant,
) {
    let mut experiments = 0u64;
    let mut trace_records = 0u64;
    for result in results {
        experiments += 1;
        trace_records += result.records;
    }
    let cache = timerstudy::cache::global();
    eprintln!(
        "{}",
        telemetry::stage_summary_line(
            stage,
            &[
                ("experiments", experiments.to_string()),
                ("trace_records", trace_records.to_string()),
                ("cache_hits", cache.hits().to_string()),
                ("cache_misses", cache.misses().to_string()),
                ("wall_ms", started.elapsed().as_millis().to_string()),
            ],
        )
    );
}
