//! Differential tests for the adaptive-timeout plane.
//!
//! The policy is part of the experiment cache key: two specs differing
//! only in policy must never alias to the same cached result. The other
//! two contracts the `--adaptive` mode rests on — its baseline half is
//! the plain run, and `Learned` artifacts (counterfactual figures
//! included) do not depend on the wheel — are rows of
//! `tests/mode_matrix.rs`.

use adaptive::AdaptivePolicy;
use simtime::SimDuration;
use timerstudy::{spec_label, ExperimentSpec, Os, Workload};

const DUR: SimDuration = SimDuration::from_secs(4);
const SEED: u64 = 11;

#[test]
fn policy_is_part_of_the_cache_key() {
    let base = ExperimentSpec::new(Os::Linux, Workload::Webserver, DUR, SEED);
    let specs = vec![
        base.with_adaptive(AdaptivePolicy::Off),
        base.with_adaptive(AdaptivePolicy::Learned),
    ];
    // Labels must be distinct or the cache (and any artifact naming
    // derived from them) would alias the policies.
    assert_ne!(spec_label(&specs[0]), spec_label(&specs[1]));
    let results = timerstudy::cache::global().run_all(&specs);
    let arms = |i: usize| {
        results[i]
            .metrics
            .counter(telemetry::SimCounter::AdaptiveLearnedArms)
    };
    // Off never takes a learned arm; Learned does — which also proves the
    // cache did not hand the same entry to different policies.
    assert_eq!(arms(0), 0, "Off must take no learned arms");
    assert!(arms(1) > 0, "Learned run took no learned arms");
}
