//! The repository's one micro-benchmark record: one bin, every hot path.
//!
//! This bin times a fixed micro-suite (the timer-queue structures, the
//! streaming-analysis event path, attribution counts included, and §3.2's
//! per-record logging cost) with hand-rolled best-of-N wall timing and
//! emits a `{name: ns_per_op}` map:
//!
//! - `bench_all --write[=PATH]` records the baseline (default
//!   `BENCH_baseline.json`, committed at the repo root);
//! - `bench_all --check[=PATH]` re-runs the suite and fails (exit 1) if
//!   any benchmark runs slower than the recorded baseline by more than
//!   the tolerance factor, if a row has no baseline entry, or if an entry
//!   has no row. The factor is loose (8×) because CI machines differ from
//!   the machine that recorded the baseline; the gate is for
//!   order-of-magnitude regressions (an accidental O(n²), a lost cache),
//!   not percent-level noise. The rows the zero-copy refactor sped up
//!   ≥2× carry a tighter 2× gate: their baseline was re-recorded after
//!   the speedup, so even at 2× the gate holds the *old* cost as a hard
//!   ceiling — losing the chunked fold, the workspace hasher or the arena
//!   would trip it on any machine;
//! - with no flag it just prints the table.
//!
//! Any other argument is a usage error (exit 2), so a misspelt `--check`
//! never silently skips the gate.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use bench::Takes;
use simtime::{SimDuration, SimInstant, SimRng};
use trace::{codec::RECORD_SIZE, Event, EventKind, RingBuffer, RingSink, Space, TraceLog};
use wheel::{HashedWheel, HierarchicalWheel, SortedList, TimerQueue};

const USAGE: &str = "usage: bench_all [--write[=PATH]] [--check[=PATH]]";
const FLAGS: [(&str, Takes); 2] = [("--write", Takes::Inline), ("--check", Takes::Inline)];

/// A slower-than-baseline run fails `--check` past this factor.
const TOLERANCE: f64 = 8.0;
/// Rows pinned at 2×: each was made ≥2× faster by the zero-copy hot-path
/// work and re-baselined, so 2× here ≈ the pre-refactor absolute cost.
const TIGHT_ROWS: [&str; 3] = ["analysis_chunk", "queue_mix/hashed", "queue_mix/sortedlist"];
const TIGHT_TOLERANCE: f64 = 2.0;
const DEFAULT_PATH: &str = "BENCH_baseline.json";

/// The `--check` tolerance for one row.
fn tolerance_of(name: &str) -> f64 {
    if TIGHT_ROWS.contains(&name) {
        TIGHT_TOLERANCE
    } else {
        TOLERANCE
    }
}

/// Best-of-N wall time for `f`, which performs `ops` operations per
/// call. One untimed warmup call amortises allocator and cache effects.
fn time_ns_per_op(ops: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut sink = f();
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let started = Instant::now();
        sink = sink.wrapping_add(f());
        let elapsed = started.elapsed().as_nanos() as f64;
        best = best.min(elapsed / ops as f64);
    }
    // Keep the side effect alive without `black_box`.
    if sink == u64::MAX {
        eprintln!("(unreachable sink note)");
    }
    best
}

/// Builds a fresh queue behind the trait object the kernels use.
type NewQueue = fn() -> Box<dyn TimerQueue>;

/// Schedule-then-drain on one structure: the simulator's dominant mix.
fn bench_queue_mix(new_queue: NewQueue) -> f64 {
    const N: u64 = 32_768;
    time_ns_per_op(2 * N, || {
        let mut q = new_queue();
        let mut rng = SimRng::new(1);
        for i in 0..N {
            q.schedule(i, 1 + rng.range_u64(0, 100_000));
        }
        let mut fired = 0u64;
        q.advance_to(100_001, &mut |_, _| fired += 1);
        fired
    })
}

/// The streaming analyzer's per-event cost on a synthetic trace chunk.
/// Telemetry records here, so the per-origin attribution counts are part
/// of the cost.
fn bench_analysis_chunk() -> f64 {
    use trace::{Event, EventKind};
    const N: u64 = 65_536;
    let origin = {
        let mut log = trace::TraceLog::new(Box::new(trace::NullSink));
        log.intern("bench:origin")
    };
    let events: Vec<Event> = (0..N)
        .map(|i| {
            let at = simtime::SimInstant::BOOT + simtime::SimDuration::from_micros(i * 7);
            Event::new(at, EventKind::Set, i % 512, origin)
                .with_expires(at + simtime::SimDuration::from_millis(1 + i % 90))
                .with_task(100, 100, trace::Space::User)
        })
        .collect();
    time_ns_per_op(N, || {
        let mut analyzer = analysis::TraceAnalyzer::new(analysis::AnalyzerConfig::linux());
        for chunk in events.chunks(4096) {
            analyzer.push_chunk(chunk);
        }
        events.len() as u64
    })
}

/// The paper's §3.2 instrumentation cost ("236 cycles" per record, about
/// 89 ns): one Set event gathered and logged through [`TraceLog`] into a
/// 64 MiB relayfs-style ring, exactly as many times as the ring holds.
/// Every record takes the store path: after every call the ring must
/// have dropped none, so no record's cost is the full-ring drop branch's.
fn bench_log_record_ring() -> f64 {
    const RING_BYTES: usize = 64 * 1024 * 1024;
    let records = (RING_BYTES / RECORD_SIZE) as u64;
    time_ns_per_op(records, || {
        let mut log = TraceLog::new(Box::new(RingSink::new(RingBuffer::new(RING_BYTES))));
        for i in 0..records {
            log.log(
                Event::new(
                    SimInstant::from_nanos(i * 1_000),
                    EventKind::Set,
                    0xC100_0000 + (i % 64) * 0x40,
                    (i % 32) as u32,
                )
                .with_timeout(SimDuration::from_millis(i % 500))
                .with_expires(SimInstant::from_nanos(i * 1_000 + 4_000_000))
                .with_task(100, 100, Space::User),
            );
        }
        let ring = log
            .sink_mut()
            .as_any_mut()
            .and_then(|sink| sink.downcast_mut::<RingSink>())
            .expect("the log writes into a ring")
            .ring();
        assert_eq!(ring.dropped(), 0, "the ring must keep every timed record");
        ring.record_count() as u64
    })
}

fn run_suite() -> BTreeMap<String, f64> {
    let queues: [(&str, NewQueue); 3] = [
        ("hierarchical", || Box::new(HierarchicalWheel::new())),
        ("hashed", || Box::new(HashedWheel::new(256))),
        ("sortedlist", || Box::new(SortedList::new())),
    ];
    let mut results = BTreeMap::new();
    for (name, new_queue) in queues {
        results.insert(format!("queue_mix/{name}"), bench_queue_mix(new_queue));
    }
    results.insert("analysis_chunk".to_string(), bench_analysis_chunk());
    results.insert("log_record/ring".to_string(), bench_log_record_ring());
    results
}

fn to_json(results: &BTreeMap<String, f64>) -> String {
    // Round to 0.1 ns so re-recorded baselines diff cleanly.
    let mut out = String::from("{\n");
    let mut first = true;
    for (name, ns) in results {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&format!("  \"{name}\": {:.1}", ns));
    }
    out.push_str("\n}\n");
    out
}

/// Parses the flat `{ "name": ns, ... }` object [`to_json`] emits. The
/// split point is the colon *after* the closing quote, so a name may
/// itself contain `:`.
fn parse_baseline(text: &str) -> Option<BTreeMap<String, f64>> {
    let body = text.trim().strip_prefix('{')?.strip_suffix('}')?;
    let mut out = BTreeMap::new();
    for line in body.lines() {
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue;
        }
        let rest = line.strip_prefix('"')?;
        let (name, value) = rest.split_once('"')?;
        let ns: f64 = value.trim().strip_prefix(':')?.trim().parse().ok()?;
        out.insert(name.to_string(), ns);
    }
    Some(out)
}

/// The `--check` verdict on one name, given its current time and its
/// baseline entry (either may be missing): `Ok` with the line to print
/// when it passes, `Err` with the failure otherwise. A row with no
/// baseline entry fails, since nothing would gate it, and so does an
/// entry whose row is gone.
fn gate(name: &str, current: Option<f64>, baseline: Option<f64>) -> Result<String, String> {
    let tolerance = tolerance_of(name);
    match (current, baseline) {
        (Some(ns), Some(base)) if ns > base * tolerance => Err(format!(
            "FAIL: {name} regressed {:.1}x over baseline \
             ({ns:.1} vs {base:.1} ns/op, gate {tolerance}x)",
            ns / base
        )),
        (Some(ns), Some(base)) => Ok(format!(
            "ok: {name} {ns:.1} ns/op (baseline {base:.1}, {:.2}x, gate {tolerance}x)",
            ns / base
        )),
        (Some(ns), None) => Err(format!(
            "FAIL: {name} ({ns:.1} ns/op) has no baseline entry to gate it"
        )),
        (None, _) => Err(format!("FAIL: baseline entry {name} no longer benchmarked")),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    bench::check_args(&args, &FLAGS, USAGE);
    let flag_path = |flag: &str| -> Option<String> {
        args.iter().find_map(|a| {
            if a == flag {
                Some(DEFAULT_PATH.to_string())
            } else {
                a.strip_prefix(&format!("{flag}=")).map(str::to_owned)
            }
        })
    };
    let write = flag_path("--write");
    let check = flag_path("--check");

    eprintln!("running the bench_all micro-suite...");
    let results = run_suite();
    for (name, ns) in &results {
        println!("{name}: {ns:.1} ns/op");
    }

    if let Some(path) = write {
        std::fs::write(&path, to_json(&results)).expect("write baseline");
        eprintln!("baseline written to {path}");
    }
    if let Some(path) = check {
        let text =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read baseline {path}: {e}"));
        let baseline = parse_baseline(&text).expect("baseline is a {name: ns} JSON object");
        let names: BTreeSet<&String> = results.keys().chain(baseline.keys()).collect();
        let mut failed = false;
        for name in names {
            let verdict = gate(
                name,
                results.get(name).copied(),
                baseline.get(name).copied(),
            );
            failed |= verdict.is_err();
            let (Ok(line) | Err(line)) = verdict;
            eprintln!("{line}");
        }
        if failed {
            std::process::exit(1);
        }
        eprintln!(
            "bench_all: all {} benchmarks within tolerance \
             ({TIGHT_TOLERANCE}x on refactored rows, {TOLERANCE}x elsewhere)",
            results.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_row_within_its_gate_passes() {
        assert!(gate("queue_mix/hashed", Some(600.0), Some(305.0)).is_ok());
        assert!(gate("queue_mix/hierarchical", Some(700.0), Some(92.7)).is_ok());
        assert!(gate("log_record/ring", Some(100.0), Some(100.0)).is_ok());
    }

    #[test]
    fn a_row_over_its_gate_fails_at_its_factor() {
        for tight in TIGHT_ROWS {
            assert!(gate(tight, Some(200.0), Some(100.0)).is_ok(), "{tight}");
            assert!(gate(tight, Some(201.0), Some(100.0)).is_err(), "{tight}");
        }
        for loose in ["queue_mix/hierarchical", "log_record/ring"] {
            assert!(gate(loose, Some(800.0), Some(100.0)).is_ok(), "{loose}");
            assert!(gate(loose, Some(801.0), Some(100.0)).is_err(), "{loose}");
        }
    }

    #[test]
    fn a_row_with_no_baseline_entry_fails() {
        assert!(gate("log_record/ring", Some(100.0), None).is_err());
    }

    #[test]
    fn a_baseline_entry_with_no_row_fails() {
        assert!(gate("log_record/ring", None, Some(100.0)).is_err());
    }
}
