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

use adaptive::AdaptivePolicy;
use simtime::SimDuration;
use timerstudy::{figures, FaultSpec};

const GOLDEN: &str = include_str!("golden/repro_60s.txt");

#[test]
fn repro_60s_matches_the_committed_golden() {
    let (_, artifacts) = figures::reproduce(
        SimDuration::from_secs(60),
        7,
        FaultSpec::none(),
        AdaptivePolicy::Off,
    );
    // `repro_all` prints each artifact followed by a newline.
    let rendered: String = artifacts
        .iter()
        .map(|a| format!("{}\n", a.printable()))
        .collect();
    if rendered != GOLDEN {
        let line = rendered
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| rendered.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "output differs from tests/golden/repro_60s.txt at line {}:\n  got:  {:?}\n  want: {:?}",
            line + 1,
            rendered.lines().nth(line).unwrap_or("<end of output>"),
            GOLDEN.lines().nth(line).unwrap_or("<end of golden>"),
        );
    }
}
