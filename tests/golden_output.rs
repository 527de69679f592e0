//! The reproduction's output, pinned byte for byte.
//!
//! `tests/golden/repro_60s.txt` is what `REPRO_SECONDS=60 repro_all`
//! prints: every artifact of a 60-simulated-second run (Figure 1's
//! Outlook trace keeps its 90 s) with seed 7, no faults and the
//! historical timeouts. Any change to a figure, a table or their
//! rendering fails here, and not only in CI's full-length comparison
//! against `repro_output.txt` and `artifacts/`. A change that moves the
//! output on purpose regenerates the file with
//!
//! ```sh
//! REPRO_SECONDS=60 cargo run --release -p bench --bin repro_all > tests/golden/repro_60s.txt
//! ```
//!
//! regenerates the full-length goldens the same way, and records in
//! EXPERIMENTS.md which artifacts moved and why.
//!
//! `tests/golden/report_fields_60s.txt` pins, from the same nine
//! results, the report fields no artifact renders: each experiment's
//! pattern mix, countdown counts, trace-anomaly counters and every
//! provenance row with its origins. A change that moves them on purpose
//! writes [`report_fields`] of these results to that file instead.

use std::fmt::Write;
use std::sync::OnceLock;

use adaptive::AdaptivePolicy;
use simtime::SimDuration;
use timerstudy::figures::{self, Artifact};
use timerstudy::{spec_label, ExperimentResult, FaultSpec};

const GOLDEN: &str = include_str!("golden/repro_60s.txt");
const REPORT_FIELDS: &str = include_str!("golden/report_fields_60s.txt");

/// The 60 s reproduction, run once for both goldens.
fn run() -> &'static (Vec<ExperimentResult>, Vec<Artifact>) {
    static RUN: OnceLock<(Vec<ExperimentResult>, Vec<Artifact>)> = OnceLock::new();
    RUN.get_or_init(|| {
        figures::reproduce(
            SimDuration::from_secs(60),
            7,
            FaultSpec::none(),
            AdaptivePolicy::Off,
        )
    })
}

/// Panics at the first line where `got` differs from the golden `want`.
fn assert_golden(got: &str, want: &str, file: &str) {
    if got == want {
        return;
    }
    let line = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    panic!(
        "output differs from {file} at line {}:\n  got:  {:?}\n  want: {:?}",
        line + 1,
        got.lines().nth(line).unwrap_or("<end of output>"),
        want.lines().nth(line).unwrap_or("<end of golden>"),
    );
}

/// Every report field that no artifact renders, one block per
/// experiment.
fn report_fields(results: &[ExperimentResult]) -> String {
    let mut out = String::new();
    for result in results {
        let r = &result.report;
        let s = &r.summary;
        writeln!(out, "== {}", spec_label(&result.spec)).unwrap();
        write!(out, "pattern_mix total={}", r.pattern_mix.total).unwrap();
        for (class, n) in &r.pattern_mix.counts {
            write!(out, " {class}={n}").unwrap();
        }
        writeln!(out).unwrap();
        writeln!(
            out,
            "countdown_timer_count={} countdown_validation={:?}",
            r.countdown_timer_count, r.countdown_validation
        )
        .unwrap();
        writeln!(
            out,
            "orphan_ends={} out_of_order_sets={} anomalous_rearms={}",
            s.orphan_ends, s.out_of_order_sets, s.anomalous_rearms
        )
        .unwrap();
        for row in &r.provenance {
            writeln!(out, "provenance {} s count={}", row.seconds, row.count).unwrap();
            for (origin, class, sets) in &row.origins {
                writeln!(out, "  {origin} {class} {sets}").unwrap();
            }
        }
    }
    out
}

#[test]
fn repro_60s_matches_the_committed_golden() {
    // `repro_all` prints each artifact followed by a newline.
    let rendered: String = run()
        .1
        .iter()
        .map(|a| format!("{}\n", a.printable()))
        .collect();
    assert_golden(&rendered, GOLDEN, "tests/golden/repro_60s.txt");
}

#[test]
fn report_fields_60s_match_the_committed_golden() {
    assert_golden(
        &report_fields(&run().0),
        REPORT_FIELDS,
        "tests/golden/report_fields_60s.txt",
    );
}
