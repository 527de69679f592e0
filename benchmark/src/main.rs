//! Command-line entry point; see `USAGE`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use benchmark::config::config;
use benchmark::measure::{self, describe, TraceMeasurement};
use benchmark::workload::{Workload, DEFAULT_SEED};
use benchmark::{compare, report};
use telemetry::json;

const USAGE: &str = "usage:
  benchmark run   [--workload W] [--seed N] [--seconds S]   end-to-end metrics -> run.json
  benchmark trace [--workload W] [--seed N]                 per-layer metrics  -> trace.json
  benchmark compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]
                                                            judge paired run.json files
  benchmark --workload W --seed N --seconds S --trace 0|1   one workload, JSON result last
workloads: paper, vista_firefox, apache_scale, paper_60s (default: all)";

#[derive(Debug)]
enum Cli {
    Measure {
        workloads: Vec<Workload>,
        seed: u64,
        seconds: f64,
        trace: bool,
        /// Print the one-line JSON result last (single-workload form).
        result_line: bool,
    },
    /// (parent, change) `run.json` paths, one pair per pair of runs.
    Compare(Vec<(String, String)>),
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let (mode, rest) = match args.first().map(String::as_str) {
        Some("compare") => {
            let paths = &args[1..];
            if paths.is_empty() || !paths.len().is_multiple_of(2) {
                return Err("compare takes run.json paths in parent, change pairs".into());
            }
            return Ok(Cli::Compare(
                paths
                    .chunks(2)
                    .map(|p| (p[0].clone(), p[1].clone()))
                    .collect(),
            ));
        }
        Some(m @ ("run" | "trace")) => (Some(m), &args[1..]),
        _ => (None, args),
    };
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = config().run_seconds;
    let mut trace = mode == Some("trace");
    for pair in rest.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value, or is unknown", pair[0]));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" if mode.is_none() => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown option {other:?}")),
        }
    }
    let result_line = mode.is_none();
    if result_line && workload.is_none() {
        return Err("--workload is required without a subcommand".into());
    }
    Ok(Cli::Measure {
        workloads: workload.map_or(Workload::ALL.to_vec(), |w| vec![w]),
        seed,
        seconds,
        trace,
        result_line,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Cli::Compare(pairs)) => run_compare(&pairs),
        Ok(Cli::Measure {
            workloads,
            seed,
            seconds,
            trace,
            result_line,
        }) => {
            let correct = if trace {
                run_trace(&workloads, seed, result_line)
            } else if let [workload] = workloads[..] {
                run_measure(workload, seed, seconds, result_line)
            } else {
                run_in_children(&workloads, seed, seconds)
            };
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("benchmark: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// Where `run.json` and `trace.json` go: `$CARGO_TARGET_DIR/benchmark`,
/// else `target/benchmark`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn write_out(name: &str, contents: &str) {
    let dir = out_dir();
    let path = dir.join(name);
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, contents)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("benchmark: cannot write {}: {e}", path.display()),
    }
}

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn header(workload: Workload, seed: u64, threads: usize, check: &benchmark::workload::Checker) {
    let reference = match (check.reference, check.recorded) {
        (Some(d), true) => format!("{d:016x} (recorded in digests.txt)"),
        (Some(d), false) => {
            format!("{d:016x} (seed not in digests.txt: first rep is the reference)")
        }
        (None, _) => "none (no rep completed)".to_owned(),
    };
    println!(
        "{}  seed {seed}  pool {threads} of {} cores  digest {reference}  failed {}/{} experiments",
        workload.name(),
        cores(),
        check.failed,
        check.attempted
    );
}

fn run_measure(workload: Workload, seed: u64, seconds: f64, result_line: bool) -> bool {
    let r = measure::run(workload, seed, seconds);
    header(workload, seed, r.threads, &r.check);
    let metrics = r.metrics();
    for m in &metrics {
        println!("{}", describe(m, report::unit_of(m.name)));
    }
    println!(
        "  closed loop, one rep in flight; {} set-up reps then {} timed; \
         no tail percentile is reported",
        r.setup_s.len(),
        r.wall_s.len()
    );
    write_out("run.json", &report::run_json(std::slice::from_ref(&r)));
    if result_line {
        println!("{}", report::result_line(&r.check, &metrics));
    }
    r.check.correct()
}

/// `run` over several workloads, each in a fresh process of this binary so
/// that every workload's first rep starts from an untouched heap, with the
/// per-workload `run.json` documents merged into one.
fn run_in_children(workloads: &[Workload], seed: u64, seconds: f64) -> bool {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let (seed, seconds) = (seed.to_string(), seconds.to_string());
    let mut merged = Vec::new();
    let mut correct = true;
    let path = out_dir().join("run.json");
    for w in workloads {
        // A child that dies before writing must not leave its predecessor's file.
        let _ = std::fs::remove_file(&path);
        let args = [
            "run",
            "--workload",
            w.name(),
            "--seed",
            &seed,
            "--seconds",
            &seconds,
        ];
        correct &= Command::new(&exe)
            .args(args)
            .status()
            .is_ok_and(|s| s.success());
        let document = std::fs::read_to_string(&path).unwrap_or_default();
        match json::parse(&document)
            .ok()
            .and_then(|d| d.get("workloads")?.as_arr()?.first().cloned())
        {
            Some(workload) => merged.push(workload.canonical()),
            None => correct = false,
        }
    }
    write_out(
        "run.json",
        &format!("{{\"workloads\": [\n  {}\n]}}\n", merged.join(",\n  ")),
    );
    correct
}

fn run_trace(workloads: &[Workload], seed: u64, result_line: bool) -> bool {
    let traces: Vec<TraceMeasurement> = workloads
        .iter()
        .map(|&w| {
            let t = measure::trace(w, seed);
            header(w, seed, t.threads, &t.check);
            for m in t.metrics() {
                println!("{}", describe(&m, report::unit_of(m.name)));
            }
            println!(
                "  traced pass {:.4} s, untraced median rep {:.4} s; the worst experiment \
                 leaves {:.2}% of its span outside sim + fold + finish",
                t.pool_s + t.layers.render_s,
                t.untraced_wall_s,
                100.0 * t.worst_unattributed
            );
            t
        })
        .collect();
    write_out("trace.json", &report::trace_json(&traces));
    if result_line {
        println!(
            "{}",
            report::result_line(&traces[0].check, &traces[0].metrics())
        );
    }
    traces.iter().all(|t| t.check.correct())
}

fn run_compare(pairs: &[(String, String)]) -> ExitCode {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let documents: Result<Vec<(String, String)>, String> = pairs
        .iter()
        .map(|(p, c)| Ok((read(p)?, read(c)?)))
        .collect();
    let rows = match documents.and_then(|d| compare::compare(&d)) {
        Ok(rows) => rows,
        Err(message) => {
            eprintln!("benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "change", "change%", "won"
    );
    for r in &rows {
        let (change, delta) = match r.change {
            Some(c) => (
                format!("{c:.6}"),
                format!("{:+.2}%", 100.0 * (c / r.parent - 1.0)),
            ),
            None => ("failed".to_owned(), "-".to_owned()),
        };
        println!(
            "{:<14} {:<14} {:>14.6} {:>14} {:>8} {:>2}/{:<3}  {}",
            r.workload,
            r.metric,
            r.parent,
            change,
            delta,
            r.wins,
            r.pairs,
            r.verdict.label()
        );
    }
    if rows
        .iter()
        .any(|r| r.verdict == compare::Verdict::Regressed)
    {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
