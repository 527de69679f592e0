//! The four workloads and the correctness reference they are checked
//! against.
//!
//! Every workload drives the default reproduction pipeline through its
//! public entry points only, and never sets an execution-mode knob
//! (parallel-DES threads, adaptive timeouts, faults, forced backends):
//! what is measured is what `repro_all` users run.

use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use simtime::SimDuration;
use telemetry::SimCounter;
use timerstudy::cache::ExperimentCache;
use timerstudy::{figures, render, run_experiment, ExperimentResult, ExperimentSpec, Os};

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 7;

/// Simulated length of [`Workload::Paper60s`]: the `REPRO_SECONDS` value
/// most continuous-integration jobs run `repro_all` at.
const CI_SECONDS: u64 = 60;

/// Sim-plane counters folded into a digest: the per-layer counts the
/// traced run reports, all produced by the kernel models (none by the
/// analysis sink), so the traced and untraced paths must agree on them.
pub const DIGEST_COUNTERS: [SimCounter; 7] = [
    SimCounter::TraceRecords,
    SimCounter::WheelSchedules,
    SimCounter::WheelCancels,
    SimCounter::WheelExpirations,
    SimCounter::WheelCascadeMoves,
    SimCounter::NetSegmentsSent,
    SimCounter::NetRetransmits,
];

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The nine `paper_specs` at paper length through the pool, then the
    /// paper's artifacts assembled and rendered.
    Paper,
    /// Vista Firefox at paper length, alone, on the calling thread.
    VistaFirefox,
    /// Linux `ApacheScale` for 45 simulated seconds, alone: 1.8 × 10⁵
    /// timers pending at the end.
    ApacheScale,
    /// The nine `paper_specs` at 60 simulated seconds (Outlook keeps its
    /// fixed 90 s) through the pool, then assembled and rendered: the
    /// `REPRO_SECONDS=60 repro_all` run.
    Paper60s,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Paper,
        Workload::VistaFirefox,
        Workload::ApacheScale,
        Workload::Paper60s,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper => "paper",
            Workload::VistaFirefox => "vista_firefox",
            Workload::ApacheScale => "apache_scale",
            Workload::Paper60s => "paper_60s",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiments one rep runs, generated from `seed` alone.
    pub fn specs(self, seed: u64) -> Vec<ExperimentSpec> {
        match self {
            Workload::Paper => figures::paper_specs(timerstudy::PAPER_DURATION, seed),
            Workload::VistaFirefox => vec![ExperimentSpec::new(
                Os::Vista,
                timerstudy::Workload::Firefox,
                timerstudy::PAPER_DURATION,
                seed,
            )],
            Workload::ApacheScale => vec![ExperimentSpec::new(
                Os::Linux,
                timerstudy::Workload::ApacheScale,
                SimDuration::from_secs(45),
                seed,
            )],
            Workload::Paper60s => figures::paper_specs(SimDuration::from_secs(CI_SECONDS), seed),
        }
    }

    /// Whether the workload's experiments share the program's pool.
    pub fn pooled(self) -> bool {
        matches!(self, Workload::Paper | Workload::Paper60s)
    }

    /// Runs the experiments the way a user of this workload does: a fresh
    /// cache's `run_all` for pooled workloads (so nothing is memoised
    /// across reps), `run_experiment` on this thread otherwise.
    pub fn run(self, specs: &[ExperimentSpec]) -> Vec<ExperimentResult> {
        if self.pooled() {
            ExperimentCache::new().run_all(specs)
        } else {
            specs.iter().copied().map(run_experiment).collect()
        }
    }

    /// The workload's rendered output: the paper's artifacts (text and
    /// CSV) for the pooled workloads, one summary table per experiment
    /// otherwise.
    pub fn render(self, results: &[ExperimentResult]) -> Vec<String> {
        match self {
            Workload::Paper | Workload::Paper60s => figures::assemble(results)
                .iter()
                .map(|a| a.printable() + a.csv.as_deref().unwrap_or(""))
                .collect(),
            _ => results
                .iter()
                .map(|r| render::summary_table(std::slice::from_ref(r)))
                .collect(),
        }
    }

    /// One closed-loop rep: run and render, timed together; the digest
    /// is taken after the clock stops. A panic anywhere in the rep fails
    /// all of its experiments.
    pub fn rep(self, specs: &[ExperimentSpec]) -> Rep {
        let start = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let results = self.run(specs);
            let rendered = self.render(&results);
            (results, rendered)
        }));
        let wall = start.elapsed();
        let experiments = specs.len() as u64;
        match outcome {
            Ok((results, rendered)) => Rep {
                wall,
                experiments,
                records: results.iter().map(|r| r.records).sum(),
                digest: Some(digest(&rendered, &results)),
                consistent: results.iter().all(consistent),
            },
            Err(_) => Rep {
                wall,
                experiments,
                records: 0,
                digest: None,
                consistent: false,
            },
        }
    }
}

/// What one rep produced.
#[derive(Debug, Clone, Copy)]
pub struct Rep {
    /// Host time from the first experiment's start to the last render.
    pub wall: Duration,
    /// Experiments attempted.
    pub experiments: u64,
    /// Trace records simulated and analysed (each is one event).
    pub records: u64,
    /// Output digest; `None` when the rep panicked.
    pub digest: Option<u64>,
    /// Whether every experiment's report accounts for every record its
    /// kernel logged.
    pub consistent: bool,
}

/// The cross-layer identity every clean experiment satisfies: the
/// analysis saw every record the trace layer logged. Event counts come
/// from the records, never from `SimSnapshot::total_events`, which sums
/// unrelated counters (nanoseconds among them).
pub fn consistent(r: &ExperimentResult) -> bool {
    r.records == r.report.summary.accesses
        && r.records == r.metrics.counter(SimCounter::TraceRecords)
}

/// 64-bit FNV-1a over the rendered output followed by each experiment's
/// record count and [`DIGEST_COUNTERS`].
pub fn digest(rendered: &[String], results: &[ExperimentResult]) -> u64 {
    let mut h = Fnv::new();
    for text in rendered {
        h.write(text.as_bytes());
    }
    for r in results {
        h.write(&r.records.to_le_bytes());
        for c in DIGEST_COUNTERS {
            h.write(&r.metrics.counter(c).to_le_bytes());
        }
    }
    h.0
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const DIGESTS: &str = include_str!("../digests.txt");

/// The recorded digest of `workload` at `seed`, if `digests.txt` has one.
pub fn reference_digest(workload: Workload, seed: u64) -> Option<u64> {
    DIGESTS
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .find_map(|line| {
            let mut fields = line.split_whitespace();
            let (name, s, d) = (fields.next()?, fields.next()?, fields.next()?);
            (name == workload.name() && s.parse::<u64>().ok()? == seed)
                .then(|| u64::from_str_radix(d, 16).expect("digests.txt holds hex digests"))
        })
}

/// Checks reps against one reference and counts failures.
///
/// The reference is the recorded digest when `digests.txt` has the seed;
/// otherwise the first rep that completes sets it, and every later rep
/// must reproduce it exactly.
#[derive(Debug, Clone)]
pub struct Checker {
    /// The digest every rep must produce.
    pub reference: Option<u64>,
    /// Whether the reference came from `digests.txt`.
    pub recorded: bool,
    /// Experiments attempted.
    pub attempted: u64,
    /// Experiments that panicked or produced wrong output.
    pub failed: u64,
}

impl Checker {
    /// A checker for `workload` at `seed`.
    pub fn new(workload: Workload, seed: u64) -> Checker {
        let reference = reference_digest(workload, seed);
        Checker {
            reference,
            recorded: reference.is_some(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Counts a rep's experiments and checks its output.
    pub fn check(&mut self, experiments: u64, digest: Option<u64>, consistent: bool) {
        self.attempted += experiments;
        let ok = match (digest, self.reference) {
            (Some(d), Some(r)) => d == r && consistent,
            (Some(d), None) if consistent => {
                self.reference = Some(d);
                true
            }
            _ => false,
        };
        if !ok {
            self.failed += experiments;
        }
    }

    /// Whether every checked experiment was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_match_the_definition() {
        let declared = &crate::config::config().workloads;
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(
            names,
            declared.iter().map(String::as_str).collect::<Vec<_>>()
        );
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("bogus"), None);
    }

    #[test]
    fn specs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            assert_eq!(w.specs(7), w.specs(7));
            assert_ne!(w.specs(7), w.specs(1009));
        }
        assert_eq!(Workload::Paper.specs(7).len(), 9);
        assert_eq!(Workload::Paper60s.specs(7).len(), 9);
    }

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        let mut h = Fnv::new();
        h.write(b"");
        assert_eq!(h.0, 0xcbf2_9ce4_8422_2325);
        h.write(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn every_workload_has_reference_digests_for_both_seeds() {
        for w in Workload::ALL {
            for seed in [DEFAULT_SEED, 1009] {
                assert!(reference_digest(w, seed).is_some(), "{} {seed}", w.name());
            }
        }
    }

    #[test]
    fn checker_fails_wrong_panicked_and_inconsistent_reps() {
        let mut c = Checker::new(Workload::Paper, 424_242);
        assert!(!c.recorded);
        c.check(9, Some(5), true);
        c.check(9, Some(5), true);
        assert!(c.correct());
        c.check(9, Some(6), true);
        c.check(9, None, false);
        c.check(9, Some(5), false);
        assert_eq!((c.attempted, c.failed), (45, 27));
        assert!(!c.correct());
    }
}
