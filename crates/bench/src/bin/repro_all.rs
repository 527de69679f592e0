//! Reproduces every table and figure of the paper in one run.
//!
//! Full 30-minute traces by default; set `REPRO_SECONDS` to scale down.
//! The nine distinct experiments run in parallel through the experiment
//! cache (thread count: `REPRO_THREADS`, default = available cores);
//! `REPRO_THREADS=1` runs them one after another, the serial reference
//! every other mode's output is byte-identical to (`tests/mode_matrix.rs`).
//! Either variable set to anything but a positive integer, or a
//! `REPRO_SECONDS` past the simulated clock's range, is a usage error
//! (exit 2). With `--artifacts DIR`, each artifact
//! is also written to `DIR` as a text rendering plus CSV data where
//! applicable. `DIR`, like the `--metrics` directory, is created before
//! any experiment runs: one that cannot be created exits 2, and a file
//! that cannot be written after the run exits 1. `--faults SPEC`
//! attaches a deterministic fault plane to every experiment (`SPEC` is
//! a comma list of `drops[=PERMILLE]`, `net-burst`, `clock-jitter`,
//! `all`, `seed=N`); the summary tables then gain drop/degradation
//! accounting rows.
//!
//! `--metrics[=DIR]` (default `artifacts/metrics`) captures every
//! wall-clock span of the run and writes two files: `run_report.json`,
//! each experiment's sim-plane snapshot plus per-name span statistics,
//! and `run_trace.chrome.json`, the same spans as a Chrome trace-event
//! profile (loadable in Perfetto / `chrome://tracing`). The sim section —
//! including the per-origin attribution tables — is bit-identical across
//! thread counts and cached runs of the same parameters; see the
//! Observability section of the README.
//!
//! `--assert-peak-resident-below N` exits nonzero if the
//! `analysis_resident_events_high_watermark` gauge reached `N` or more
//! in any experiment (the CI bounded-memory check, run on
//! `REPRO_SECONDS=300` traces).
//!
//! `--adaptive` (the paper's §5 "timeouts should be learned") runs every
//! experiment *twice* on the same seeded trace — historical constants vs
//! learned timeouts — and appends three counterfactual figures: spurious
//! timer expirations avoided per origin (riding the attribution plane),
//! the dynticks sleep-residency histogram (the energy proxy), and
//! retransmit-latency deltas (most visible under `--faults`). Composes
//! with `--faults`.
//!
//! Any other argument, or a flag missing its value, is a usage error
//! (exit 2). A closed stdout (`repro_all | head`) ends the output: the
//! run still finishes its stderr summary, metrics and checks.

use bench::{Stdout, Takes};
use timerstudy::FaultSpec;

const SEED: u64 = 7;

const USAGE: &str = "usage: repro_all [--artifacts DIR] \
     [--metrics[=DIR]] [--assert-peak-resident-below N] [--faults SPEC] \
     [--adaptive]";

/// Every flag, spelled the way its parser below reads it.
const FLAGS: [(&str, Takes); 5] = [
    ("--metrics", Takes::Inline),
    ("--adaptive", Takes::Nothing),
    ("--artifacts", Takes::Next),
    ("--assert-peak-resident-below", Takes::Next),
    ("--faults", Takes::Next),
];

/// Creates `dir` for `flag`'s files before anything runs, so an unusable
/// directory wastes no run: exits 2 with one stderr line when it cannot.
fn create_output_dir(flag: &str, dir: &str) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("{flag} {dir}: {e}");
        std::process::exit(2);
    }
}

/// Writes one output file; exits 1 with one stderr line when it cannot.
fn write_output(path: &str, contents: impl AsRef<[u8]>) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("writing {path}: {e}");
        std::process::exit(1);
    }
}

/// Parses `--metrics` / `--metrics=DIR` into the report directory.
fn metrics_dir(args: &[String]) -> Option<String> {
    for arg in args {
        if arg == "--metrics" {
            return Some("artifacts/metrics".to_string());
        }
        if let Some(dir) = arg.strip_prefix("--metrics=") {
            return Some(dir.to_string());
        }
    }
    None
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    bench::check_args(&args, &FLAGS, USAGE);
    let artifacts_dir = args
        .iter()
        .position(|a| a == "--artifacts")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let metrics = metrics_dir(&args);
    if let Some(dir) = &artifacts_dir {
        create_output_dir("--artifacts", dir);
    }
    if let Some(dir) = &metrics {
        create_output_dir("--metrics", dir);
    }
    if metrics.is_some() {
        // Chrome-trace profiling rides with the run report: capture every
        // wall-plane span from here on.
        telemetry::chrome::set_capture(true);
        telemetry::chrome::register_thread_name("main");
    }
    let resident_cap = match args
        .iter()
        .position(|a| a == "--assert-peak-resident-below")
        .and_then(|i| args.get(i + 1))
    {
        Some(n) => match n.parse::<u64>() {
            Ok(n) if n >= 1 => Some(n),
            _ => {
                eprintln!("--assert-peak-resident-below {n}: expected an integer >= 1");
                std::process::exit(2);
            }
        },
        None => None,
    };
    let faults = match args
        .iter()
        .position(|a| a == "--faults")
        .and_then(|i| args.get(i + 1))
    {
        Some(spec) => match FaultSpec::parse(spec) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("--faults {spec}: {e}");
                std::process::exit(2);
            }
        },
        None => FaultSpec::none(),
    };
    let policy = if args.iter().any(|a| a == "--adaptive") {
        adaptive::AdaptivePolicy::Learned
    } else {
        adaptive::AdaptivePolicy::Off
    };
    let duration = bench::repro_duration();
    let threads = timerstudy::parallel::default_threads(9);
    eprintln!(
        "running all experiments at {} simulated seconds per trace (up to {threads} threads, faults: {}, adaptive: {})...",
        duration.as_secs(),
        faults.label(),
        policy.label(),
    );
    let started = std::time::Instant::now();
    let mode = if !faults.is_none() {
        "faulted"
    } else if policy.is_learned() {
        "adaptive"
    } else {
        "parallel"
    };
    let (results, artifacts) = timerstudy::figures::reproduce(duration, SEED, faults, policy);
    let wall = started.elapsed();
    eprintln!(
        "all experiments finished in {:.2} s wall-clock",
        wall.as_secs_f64()
    );
    let mut out = Stdout::default();
    for (index, artifact) in artifacts.iter().enumerate() {
        writeln!(out, "{}", artifact.printable());
        if let Some(dir) = &artifacts_dir {
            let stem = artifact
                .title
                .split(':')
                .next()
                .unwrap_or("artifact")
                .to_lowercase()
                .replace(' ', "_");
            let base = format!("{dir}/{index:02}_{stem}");
            write_output(&format!("{base}.txt"), artifact.printable());
            if let Some(csv) = &artifact.csv {
                write_output(&format!("{base}.csv"), csv);
            }
        }
    }
    if let Some(dir) = &artifacts_dir {
        eprintln!("artifacts written to {dir}/");
    }
    // The final run summary is always printed, metrics requested or not.
    let cache = timerstudy::cache::global();
    bench::print_stage_summary(&format!("repro_all.{mode}"), &results, started);
    eprintln!(
        "run summary: cache {} hits / {} misses, {} thread(s), {:.2} s wall-clock",
        cache.hits(),
        cache.misses(),
        threads,
        wall.as_secs_f64()
    );
    if let Some(dir) = metrics {
        let report =
            timerstudy::run_report(&results, mode, duration.as_secs(), SEED, threads, wall);
        write_output(&format!("{dir}/run_report.json"), report.to_json());
        write_output(
            &format!("{dir}/run_trace.chrome.json"),
            telemetry::chrome::export_json(),
        );
        eprintln!(
            "telemetry run report written to {dir}/run_report.json \
             and {dir}/run_trace.chrome.json"
        );
    }
    // The analysis pipeline's memory bound, from each experiment's sim
    // snapshot: capped by the chunk size no matter how long the trace is.
    let peak_resident = results
        .iter()
        .map(|r| {
            r.metrics
                .gauge(telemetry::SimGauge::AnalysisResidentEventsHigh)
        })
        .max()
        .unwrap_or(0);
    eprintln!("peak resident analysis events: {peak_resident}");
    if let Some(cap) = resident_cap {
        if peak_resident >= cap {
            eprintln!("FAIL: peak resident analysis events {peak_resident} >= cap {cap}");
            std::process::exit(1);
        }
        eprintln!("peak resident analysis events within cap {cap}");
    }
}
