//! The mode matrix: one differential harness for every execution mode
//! of the reproduction.
//!
//! Each of the paper's artifacts comes from one deterministic trace per
//! workload, so every mode the reproduction offers promises the serial
//! reference run's output byte for byte: the worker pool, the experiment
//! cache, the collect-everything analysis oracle, an explicit clean fault
//! plane, the baseline half of an `--adaptive` run and a forced timer
//! wheel. A fault plane changes the output, so each fault mode and seed
//! is held to its own serial run instead.
//!
//! A row declares a mode once: the batch it starts from, how it rewrites
//! each spec, how it runs the rewritten batch, and the checks its results
//! must pass. Each row is its own test, and each reference batch runs
//! once per process. `tests/mode_matrix.rs` holds the table; a few test
//! files declare further rows under the names of the tests they replaced.

// Each test file that includes this module uses a different part of it.
#![allow(dead_code)]

use std::sync::OnceLock;
use std::time::Duration;

use adaptive::AdaptivePolicy;
use analysis::TraceAnalyzer;
use des::CpuMeter;
use simtime::SimDuration;
use telemetry::SimCounter;
use timerstudy::cache::ExperimentCache;
use timerstudy::counterfactual::counterfactual_artifacts;
use timerstudy::experiment::{analyzer_config, run_experiments, table_specs};
use timerstudy::figures::{self, assemble, paper_specs, Artifact};
use timerstudy::parallel::run_experiments_parallel_with;
use timerstudy::{spec_label, ExperimentResult, ExperimentSpec, FaultSpec, Os};
use trace::{CollectSink, Event, TraceLog};
use wheel::Backend;

/// Trace length of every batch, in simulated seconds (Figure 1's Outlook
/// trace keeps its 90 s).
pub const SECS: u64 = 20;

/// Seed of the paper batch: `repro_all`'s.
pub const PAPER_SEED: u64 = 7;

/// Seed of the fault batch.
const FAULT_BATCH_SEED: u64 = 9;

/// The batch a mode starts from, and the run it is held to.
#[derive(Clone, Copy)]
pub enum Base {
    /// The nine paper experiments, held to their serial run: what
    /// `repro_all` prints at `REPRO_SECONDS=20`.
    Paper,
    /// The same nine under the `Learned` policy, held to
    /// `figures::reproduce` on the native wheels: the nine baseline runs,
    /// then the nine learned ones, rendering the 14 paper artifacts and
    /// the three counterfactuals.
    Learned,
    /// The eight table workloads, held to the serial run of the mode's
    /// own specs.
    Faults,
}

/// One check every batch a mode returns must pass.
#[derive(Clone, Copy)]
pub enum Check {
    /// The `serde_json` report text equals the reference's.
    Report,
    /// Records, wakeups, busy time and logging overhead equal the
    /// reference's.
    Counters,
    /// Each sim-plane snapshot, and the canonical `sim` section of a run
    /// report over the batch, equal the reference's.
    Sim,
    /// The assembled artifact text and CSV equal the reference's.
    Artifacts,
    /// The attribution tables and the summed wheel schedules, cancels and
    /// expirations equal the reference's, and each label names the forced
    /// wheel.
    Wheel,
    /// The spec keys like the plain one, and no record is dropped, no end
    /// is orphaned and no table grows a drop row.
    Clean,
    /// Every logged record is delivered or counted as dropped, and the
    /// summary keeps its user/kernel split.
    Conserved,
    /// At least one report differs from the same batch run clean.
    Degraded,
}

pub use Check::*;

/// The planes every byte-identical mode promises.
pub const FULL: &[Check] = &[Report, Counters, Sim, Artifacts];

/// What each fault mode and seed promises.
pub const FAULTED: &[Check] = &[Report, Counters, Sim, Conserved, Degraded];

/// One row of the matrix.
pub struct Mode {
    pub base: Base,
    /// Rewrites one spec of the base batch into this mode's spec.
    pub spec: fn(ExperimentSpec) -> ExperimentSpec,
    /// Runs the rewritten batch; returns every batch of results the mode
    /// hands back, each in spec order.
    pub run: fn(&[ExperimentSpec]) -> Vec<Vec<ExperimentResult>>,
    pub checks: &'static [Check],
}

/// A reference run: results in spec order and the artifacts rendered
/// from them.
struct Reference {
    results: Vec<ExperimentResult>,
    artifacts: Vec<Artifact>,
}

fn paper() -> &'static Reference {
    static PAPER: OnceLock<Reference> = OnceLock::new();
    PAPER.get_or_init(|| {
        let results = run_experiments(&paper_specs(SimDuration::from_secs(SECS), PAPER_SEED));
        let artifacts = assemble(&results);
        Reference { results, artifacts }
    })
}

fn learned() -> &'static Reference {
    static LEARNED: OnceLock<Reference> = OnceLock::new();
    LEARNED.get_or_init(|| {
        let (results, artifacts) = figures::reproduce(
            SimDuration::from_secs(SECS),
            PAPER_SEED,
            FaultSpec::none(),
            AdaptivePolicy::Learned,
        );
        assert_eq!(
            artifacts.len(),
            17,
            "14 paper artifacts and 3 counterfactuals"
        );
        let counterfactuals = artifacts
            .iter()
            .filter(|a| a.title.starts_with("Counterfactual"))
            .count();
        assert_eq!(counterfactuals, 3);
        Reference { results, artifacts }
    })
}

/// The fault batch run clean: what a fault plane must change.
fn clean_fault_batch() -> &'static [ExperimentResult] {
    static CLEAN: OnceLock<Vec<ExperimentResult>> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let duration = SimDuration::from_secs(SECS);
        let mut specs = table_specs(Os::Linux, duration, FAULT_BATCH_SEED);
        specs.extend(table_specs(Os::Vista, duration, FAULT_BATCH_SEED));
        run_experiments(&specs)
    })
}

/// Renders a batch laid out as `figures::reproduce` returns its results:
/// the nine paper results, then for a learned run the nine learned ones.
fn artifacts(results: &[ExperimentResult]) -> Vec<Artifact> {
    let (fixed, learned) = results.split_at(9);
    let mut artifacts = assemble(fixed);
    if !learned.is_empty() {
        artifacts.extend(counterfactual_artifacts(fixed, learned));
    }
    artifacts
}

fn report_json(r: &ExperimentResult) -> String {
    serde_json::to_string(&r.report).unwrap()
}

/// The canonical `sim` section of a schema-valid run report over
/// `results`; `mode`, `threads` and `wall` stay outside that section.
fn canonical_sim(
    results: &[ExperimentResult],
    mode: &str,
    threads: usize,
    wall: Duration,
) -> String {
    let report = timerstudy::run_report(results, mode, SECS, PAPER_SEED, threads, wall);
    let value = telemetry::json::parse(&report.to_json()).expect("run report parses");
    telemetry::report::validate_value(&value).expect("run report is schema-valid");
    telemetry::report::sim_section_canonical(&value).expect("canonical sim section")
}

impl Mode {
    pub fn check(&self) {
        let rewrite = |results: &[ExperimentResult]| -> Vec<ExperimentSpec> {
            results.iter().map(|r| (self.spec)(r.spec)).collect()
        };
        let own;
        let reference = match self.base {
            Base::Paper => paper(),
            Base::Learned => learned(),
            Base::Faults => {
                let results = run_experiments(&rewrite(clean_fault_batch()));
                own = Reference {
                    results,
                    artifacts: Vec::new(),
                };
                &own
            }
        };
        let specs = rewrite(&reference.results);
        for (n, batch) in (self.run)(&specs).iter().enumerate() {
            let what = format!("batch {n}");
            let got: Vec<ExperimentSpec> = batch.iter().map(|r| r.spec).collect();
            assert_eq!(got, specs, "{what}: results out of spec order");
            for check in self.checks {
                check.apply(reference, batch, &what);
            }
        }
    }
}

impl Check {
    fn apply(self, reference: &Reference, batch: &[ExperimentResult], what: &str) {
        let pairs = reference.results.iter().zip(batch);
        match self {
            Report => {
                for (want, got) in pairs {
                    assert_eq!(
                        report_json(want),
                        report_json(got),
                        "{what}: report differs for {}",
                        spec_label(&got.spec)
                    );
                }
            }
            Counters => {
                for (want, got) in pairs {
                    let counters =
                        |r: &ExperimentResult| (r.records, r.wakeups, r.busy, r.logging_overhead);
                    assert_eq!(
                        counters(want),
                        counters(got),
                        "{what}: counters differ for {}",
                        spec_label(&got.spec)
                    );
                }
            }
            Sim => {
                for (want, got) in pairs {
                    // An all-zero snapshot would make the equality vacuous.
                    assert!(want.metrics.counter(SimCounter::TraceRecords) > 0);
                    assert_eq!(
                        want.metrics,
                        got.metrics,
                        "{what}: sim-plane snapshot differs for {}",
                        spec_label(&got.spec)
                    );
                }
                assert_eq!(
                    canonical_sim(&reference.results, "serial", 1, Duration::from_millis(100)),
                    canonical_sim(batch, "matrix", 4, Duration::from_millis(999)),
                    "{what}: canonical run-report sim sections differ"
                );
            }
            Artifacts => {
                let got = artifacts(batch);
                assert_eq!(reference.artifacts.len(), got.len(), "{what}: artifact set");
                for (want, got) in reference.artifacts.iter().zip(&got) {
                    assert_eq!(want.title, got.title, "{what}: artifact order");
                    assert_eq!(
                        want.printable(),
                        got.printable(),
                        "{what}: '{}' text differs",
                        want.title
                    );
                    assert_eq!(want.csv, got.csv, "{what}: '{}' CSV differs", want.title);
                }
            }
            Wheel => {
                for (want, got) in pairs {
                    assert!(!want.report.attribution.rows.is_empty());
                    assert_eq!(
                        serde_json::to_string(&want.report.attribution).unwrap(),
                        serde_json::to_string(&got.report.attribution).unwrap(),
                        "{what}: attribution differs for {}",
                        spec_label(&got.spec)
                    );
                    let label = spec_label(&got.spec);
                    assert_ne!(got.spec.backend, Backend::Native, "{what}: {label}");
                    assert!(
                        label.ends_with(&format!("backend={}", got.spec.backend.label())),
                        "{what}: the label must name the forced wheel: {label}"
                    );
                }
                // The externally observable timer traffic is identical;
                // only the structure-internal churn counter may differ.
                for counter in [
                    SimCounter::WheelSchedules,
                    SimCounter::WheelCancels,
                    SimCounter::WheelExpirations,
                ] {
                    let sum = |rs: &[ExperimentResult]| -> u64 {
                        rs.iter().map(|r| r.metrics.counter(counter)).sum()
                    };
                    assert!(sum(&reference.results) > 0, "{counter:?} must be live");
                    assert_eq!(
                        sum(&reference.results),
                        sum(batch),
                        "{what}: summed {counter:?} differs"
                    );
                }
            }
            Clean => {
                for (want, got) in pairs {
                    assert_eq!(want.spec, got.spec, "{what}: a clean plane forked the spec");
                    assert_eq!(got.report.summary.dropped_records, 0);
                    assert_eq!(got.report.summary.orphan_ends, 0);
                }
                for artifact in artifacts(batch) {
                    assert!(
                        !artifact.text.contains("Dropped records")
                            && !artifact.text.contains("Orphan ends"),
                        "{what}: a clean artifact mentions drops:\n{}",
                        artifact.text
                    );
                }
            }
            Conserved => {
                for r in batch {
                    let s = &r.report.summary;
                    let label = spec_label(&r.spec);
                    assert_eq!(
                        s.accesses + s.dropped_records,
                        r.records,
                        "{what}: delivered + dropped != logged for {label}"
                    );
                    assert_eq!(s.accesses, s.user_space + s.kernel, "{what}: {label}");
                    assert!(s.set >= 1, "{what}: a degraded trace still carries sets");
                }
            }
            Degraded => {
                let touched = clean_fault_batch()
                    .iter()
                    .zip(batch)
                    .filter(|(clean, faulted)| report_json(clean) != report_json(faulted))
                    .count();
                assert!(touched >= 1, "{what}: the fault plane changed no report");
            }
        }
    }
}

pub fn serial(specs: &[ExperimentSpec]) -> Vec<Vec<ExperimentResult>> {
    vec![run_experiments(specs)]
}

pub fn pool<const THREADS: usize>(specs: &[ExperimentSpec]) -> Vec<Vec<ExperimentResult>> {
    vec![run_experiments_parallel_with(specs, THREADS)]
}

/// A fresh cache asked for every spec twice in one batch, then once more
/// warm: each distinct spec runs exactly once, and every other request is
/// a hit.
pub fn cache_twice_then_warm(specs: &[ExperimentSpec]) -> Vec<Vec<ExperimentResult>> {
    let n = specs.len() as u64;
    let cache = ExperimentCache::new();
    let doubled: Vec<ExperimentSpec> = specs.iter().chain(specs).copied().collect();
    let mut first = cache.run_all(&doubled);
    let second = first.split_off(specs.len());
    assert_eq!(
        cache.misses(),
        n,
        "each distinct spec must run exactly once"
    );
    assert_eq!(
        cache.hits(),
        n,
        "each duplicate must be served from the cache"
    );
    assert_eq!(cache.len(), specs.len());
    let warm = cache.run_all(specs);
    assert_eq!(cache.misses(), n, "a warm batch runs nothing");
    assert_eq!(cache.hits(), 2 * n);
    vec![first, second, warm]
}

/// The baseline half of a learned `figures::reproduce`: the nine runs
/// under the historical constants that the counterfactuals compare
/// against.
pub fn learned_baseline(specs: &[ExperimentSpec]) -> Vec<Vec<ExperimentResult>> {
    vec![learned().results[..specs.len()].to_vec()]
}

pub fn collect_everything(specs: &[ExperimentSpec]) -> Vec<Vec<ExperimentResult>> {
    vec![collect_all(specs).into_iter().map(|(r, _)| r).collect()]
}

/// The collect-everything oracle, built from public API only: the whole
/// trace is collected into one resident `Vec<Event>`, then folded by a
/// single `push_chunk`. Returns the result and how many events it held.
fn collect_then_analyze(spec: ExperimentSpec) -> (ExperimentResult, usize) {
    let sink = Box::new(CollectSink::default());
    let (net, backend, policy) = (spec.faults.net, spec.backend, spec.adaptive);
    match spec.os {
        Os::Linux => {
            let mut kernel = workloads::run_linux_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                backend,
                policy,
            );
            let events = kernel
                .log_mut()
                .take_collected_events()
                .expect("a CollectSink");
            analyze(spec, &events, kernel.log(), kernel.cpu())
        }
        Os::Vista => {
            let mut kernel = workloads::run_vista_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                backend,
                policy,
            );
            let events = kernel
                .log_mut()
                .take_collected_events()
                .expect("a CollectSink");
            analyze(spec, &events, kernel.log(), kernel.cpu())
        }
    }
}

fn analyze(
    spec: ExperimentSpec,
    events: &[Event],
    log: &TraceLog,
    cpu: &CpuMeter,
) -> (ExperimentResult, usize) {
    let mut analyzer = TraceAnalyzer::new(analyzer_config(spec.os, spec.workload));
    analyzer.push_chunk(events);
    let result = ExperimentResult {
        spec,
        report: analyzer.finish(log.strings()),
        wakeups: cpu.wakeups(),
        busy: cpu.busy_time(),
        records: log.records_logged(),
        logging_overhead: log.modeled_overhead(),
        metrics: telemetry::SimSnapshot::empty(),
    };
    (result, events.len())
}

pub fn collect_all(specs: &[ExperimentSpec]) -> Vec<(ExperimentResult, usize)> {
    specs.iter().copied().map(collect_then_analyze).collect()
}

/// The fault plane `mode` (a `--faults` spelling) under fault seed `seed`.
pub fn faults(mode: &str, seed: u64) -> FaultSpec {
    FaultSpec::parse(mode).unwrap().with_seed(seed)
}

/// Declares rows of the matrix: one test per row.
macro_rules! mode_matrix {
    ($($name:ident: $base:ident, $spec:expr, $run:expr, $checks:expr;)*) => {$(
        #[test]
        fn $name() {
            $crate::matrix::Mode {
                base: $crate::matrix::Base::$base,
                spec: $spec,
                run: $run,
                checks: $checks,
            }
            .check();
        }
    )*};
}

pub(crate) use mode_matrix;
