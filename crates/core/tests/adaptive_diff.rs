//! Differential tests for the adaptive-timeout plane.
//!
//! The contract the `--adaptive` mode rests on:
//! * `Fixed` keeps the plumbing live but every decision clamped to the
//!   historical constant — its artifacts must be byte-identical to a run
//!   with the policy `Off` (the plumbing-is-inert guarantee).
//! * `Learned` changes timeout *values* only, never the replay machinery
//!   — its artifacts (including the counterfactual figures) must be
//!   byte-identical whichever wheel a spec forces.
//! * The policy is part of the experiment cache key: two specs differing
//!   only in policy must never alias to the same cached result.

use adaptive::AdaptivePolicy;
use simtime::SimDuration;
use timerstudy::figures::{reproduce_all_adaptive_with_results, Artifact};
use timerstudy::{spec_label, Backend, ExperimentSpec, FaultSpec, Os, Workload};

const DUR: SimDuration = SimDuration::from_secs(4);
const SEED: u64 = 11;

fn artifacts(policy: AdaptivePolicy, backend: Backend) -> Vec<Artifact> {
    reproduce_all_adaptive_with_results(DUR, SEED, FaultSpec::none(), backend, policy).1
}

fn assert_identical(a: &[Artifact], b: &[Artifact], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: artifact counts differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.title, y.title, "{what}: titles diverge");
        assert_eq!(x.text, y.text, "{what}: '{}' text diverges", x.title);
        assert_eq!(x.csv, y.csv, "{what}: '{}' csv diverges", x.title);
    }
}

#[test]
fn fixed_policy_is_byte_identical_to_off() {
    let off = artifacts(AdaptivePolicy::Off, Backend::Native);
    let fixed = artifacts(AdaptivePolicy::Fixed, Backend::Native);
    assert_identical(&off, &fixed, "fixed-vs-off");
}

#[test]
fn learned_artifacts_are_invariant_across_backends() {
    let native = artifacts(AdaptivePolicy::Learned, Backend::Native);
    let hashed = artifacts(AdaptivePolicy::Learned, Backend::Hashed);
    // The learned run appends the three counterfactual figures to the
    // paper's 14 artifacts.
    assert_eq!(native.len(), 17);
    let counterfactuals: Vec<&str> = native
        .iter()
        .filter(|a| a.title.starts_with("Counterfactual"))
        .map(|a| a.title.as_str())
        .collect();
    assert_eq!(counterfactuals.len(), 3, "got {counterfactuals:?}");
    assert_identical(&native, &hashed, "learned-across-backends");
}

#[test]
fn policy_is_part_of_the_cache_key() {
    let base = ExperimentSpec::new(Os::Linux, Workload::Webserver, DUR, SEED);
    let specs = vec![
        base.with_adaptive(AdaptivePolicy::Off),
        base.with_adaptive(AdaptivePolicy::Fixed),
        base.with_adaptive(AdaptivePolicy::Learned),
    ];
    // Labels must be distinct or the cache (and any artifact naming
    // derived from them) would alias the policies.
    assert_ne!(spec_label(&specs[0]), spec_label(&specs[2]));
    assert_ne!(spec_label(&specs[1]), spec_label(&specs[2]));
    let results = timerstudy::cache::global().run_all(&specs);
    let arms = |i: usize| {
        results[i]
            .metrics
            .counter(telemetry::SimCounter::AdaptiveLearnedArms)
    };
    // Off and Fixed never take a learned arm; Learned does — which also
    // proves the cache did not hand the same entry to different policies.
    assert_eq!(arms(0), 0, "Off must take no learned arms");
    assert_eq!(arms(1), 0, "Fixed must take no learned arms");
    assert!(arms(2) > 0, "Learned run took no learned arms");
    // The replay machinery is untouched: Off and Fixed agree on the full
    // sim plane, Learned agrees on trace length but differs in decisions.
    assert_eq!(
        results[0].report.summary.accesses,
        results[1].report.summary.accesses
    );
}
