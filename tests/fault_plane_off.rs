//! The fault plane's zero-cost-when-off contract: an experiment carrying
//! an explicit `FaultSpec::none()` is *the same experiment* as one that
//! never heard of faults — same cache key, bit-identical report, counters
//! and rendered artifacts. This is what lets the fault machinery live on
//! the main experiment path without threatening the committed
//! `artifacts/`.
//!
//! The `none_faults_*` tests are rows of the mode matrix
//! (`tests/matrix/mod.rs`) that run the paper batch under
//! `with_faults(FaultSpec::none())` against the serial reference, each
//! checking one part of the contract.

mod matrix;

use simtime::SimDuration;
use timerstudy::cache::ExperimentCache;
use timerstudy::figures::paper_specs;
use timerstudy::{ExperimentResult, ExperimentSpec, FaultSpec, Os, Workload};

use matrix::Check::*;
use matrix::{mode_matrix, serial, PAPER_SEED, SECS};

fn none_faults(spec: ExperimentSpec) -> ExperimentSpec {
    spec.with_faults(FaultSpec::none())
}

/// A cache warmed with the plain paper batch, then asked for `specs`:
/// re-requesting through `with_faults(none())` must be all cache hits.
fn cache_warmed_with_plain_specs(specs: &[ExperimentSpec]) -> Vec<Vec<ExperimentResult>> {
    let cache = ExperimentCache::new();
    cache.run_all(&paper_specs(SimDuration::from_secs(SECS), PAPER_SEED));
    let misses = cache.misses();
    let results = cache.run_all(specs);
    assert_eq!(
        cache.misses(),
        misses,
        "FaultSpec::none() forked the cache key"
    );
    assert_eq!(cache.hits(), specs.len() as u64);
    vec![results]
}

mode_matrix! {
    // row: base, spec transform, runner, checks;
    none_faults_reports_are_bit_identical: Paper, none_faults, serial, &[Report, Counters, Clean];
    none_faults_hits_the_same_cache_entry:
        Paper, none_faults, cache_warmed_with_plain_specs, &[Report, Clean];
    none_faults_artifacts_match_the_clean_pipeline: Paper, none_faults, serial, &[Artifacts, Clean];
}

#[test]
fn active_faults_key_their_own_cache_entries() {
    let duration = SimDuration::from_secs(SECS);
    let base = ExperimentSpec::new(Os::Linux, Workload::Skype, duration, 7);
    let cache = ExperimentCache::new();
    cache.run_all(&[
        base,
        base.with_faults(FaultSpec::ring_drops()),
        base.with_faults(FaultSpec::net_burst()),
        base.with_faults(FaultSpec::clock_jitter()),
    ]);
    assert_eq!(
        cache.misses(),
        4,
        "each distinct fault plane must run separately"
    );
    assert_eq!(cache.hits(), 0);
}
