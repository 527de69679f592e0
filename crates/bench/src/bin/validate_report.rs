//! Validates telemetry run reports written by `repro_all --metrics`.
//!
//! * `validate_report FILE` — parses FILE and checks it against the run
//!   report schema (version, required sections, every sim-plane metric
//!   present with integer values, every experiment's attribution table
//!   well-formed).
//! * `validate_report --assert-sim-equal A B` — additionally asserts the
//!   two reports' `sim` sections are identical after canonicalisation.
//!   This is the CI drift check: two runs of the same parameters must
//!   agree on the sim plane regardless of thread count or cache state,
//!   while their wall planes are allowed (expected) to differ.
//! * `validate_report --chrome FILE` — checks a Chrome trace-event
//!   profile (`run_trace.chrome.json`) for well-formedness: valid JSON,
//!   a `traceEvents` array, every `B` matched by an `E` on the same
//!   thread, and per-thread timestamps monotonically non-decreasing.

use simtime::fasthash::FoldMap;
use telemetry::json;
use telemetry::report::{sim_section_canonical, validate_value};

fn load(path: &str) -> json::Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: cannot read: {e}");
        std::process::exit(1);
    });
    let value = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid JSON: {e}");
        std::process::exit(1);
    });
    if let Err(e) = validate_value(&value) {
        eprintln!("{path}: schema violation: {e}");
        std::process::exit(1);
    }
    value
}

fn sim_canonical(path: &str) -> String {
    sim_section_canonical(&load(path)).unwrap_or_else(|e| {
        eprintln!("{path}: {e}");
        std::process::exit(1);
    })
}

/// Asserts the two reports' canonical `sim` sections are identical,
/// reporting the first byte where they diverge.
fn assert_sim_equal(a: &str, b: &str) {
    let (ca, cb) = (sim_canonical(a), sim_canonical(b));
    if ca != cb {
        eprintln!("sim-plane drift between {a} and {b}:");
        eprintln!("  {a}: {} canonical bytes", ca.len());
        eprintln!("  {b}: {} canonical bytes", cb.len());
        let diverge = ca
            .bytes()
            .zip(cb.bytes())
            .position(|(x, y)| x != y)
            .unwrap_or(ca.len().min(cb.len()));
        let start = diverge.saturating_sub(40);
        eprintln!(
            "  first divergence at byte {diverge}:\n    {a}: ...{}\n    {b}: ...{}",
            &ca[start..(diverge + 40).min(ca.len())],
            &cb[start..(diverge + 40).min(cb.len())],
        );
        std::process::exit(1);
    }
    eprintln!(
        "{a} and {b}: sim-planes identical ({} canonical bytes)",
        ca.len()
    );
}

/// Validates a Chrome trace-event file: balanced `B`/`E` per thread and
/// monotone per-thread timestamps. `M` (metadata) and `C` (counter)
/// events are allowed anywhere.
fn check_chrome(path: &str) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("{path}: cannot read: {e}");
        std::process::exit(1);
    });
    let value = json::parse(&text).unwrap_or_else(|e| {
        eprintln!("{path}: invalid JSON: {e}");
        std::process::exit(1);
    });
    let Some(events) = value.get("traceEvents").and_then(json::Value::as_arr) else {
        eprintln!("{path}: missing traceEvents array");
        std::process::exit(1);
    };
    let mut depth: FoldMap<u64, i64> = FoldMap::default();
    let mut last_ts: FoldMap<u64, f64> = FoldMap::default();
    let mut spans = 0u64;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(json::Value::as_str)
            .unwrap_or_else(|| {
                eprintln!("{path}: event {i} has no ph");
                std::process::exit(1);
            });
        match ph {
            "M" | "C" => continue,
            "B" | "E" => {}
            other => {
                eprintln!("{path}: event {i} has unexpected phase {other:?}");
                std::process::exit(1);
            }
        }
        let tid = ev
            .get("tid")
            .and_then(json::Value::as_u64)
            .unwrap_or_else(|| {
                eprintln!("{path}: event {i} has no tid");
                std::process::exit(1);
            });
        let ts = ev
            .get("ts")
            .and_then(json::Value::as_f64)
            .unwrap_or_else(|| {
                eprintln!("{path}: event {i} has no numeric ts");
                std::process::exit(1);
            });
        let prev = last_ts.insert(tid, ts).unwrap_or(f64::MIN);
        if ts < prev {
            eprintln!("{path}: event {i}: ts {ts} < previous {prev} on tid {tid}");
            std::process::exit(1);
        }
        let d = depth.entry(tid).or_insert(0);
        *d += if ph == "B" { 1 } else { -1 };
        if *d < 0 {
            eprintln!("{path}: event {i}: E without matching B on tid {tid}");
            std::process::exit(1);
        }
        if ph == "B" {
            spans += 1;
        }
    }
    for (tid, d) in &depth {
        if *d != 0 {
            eprintln!("{path}: tid {tid} ends with {d} unclosed B event(s)");
            std::process::exit(1);
        }
    }
    eprintln!(
        "{path}: well-formed Chrome trace ({spans} spans across {} thread(s))",
        depth.len()
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [path] if !path.starts_with("--") => {
            load(path);
            eprintln!("{path}: schema-valid run report");
        }
        [flag, a, b] if flag == "--assert-sim-equal" => assert_sim_equal(a, b),
        [flag, path] if flag == "--chrome" => {
            check_chrome(path);
        }
        _ => {
            eprintln!("usage: validate_report FILE");
            eprintln!("       validate_report --assert-sim-equal FILE1 FILE2");
            eprintln!("       validate_report --chrome TRACE_FILE");
            std::process::exit(2);
        }
    }
}
