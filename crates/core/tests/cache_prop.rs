//! Property tests for the experiment cache's keying invariants and the
//! per-trial seed derivation they rest on.

use proptest::prelude::*;
use simtime::fasthash::{FoldMap, FoldSet};
use simtime::SimDuration;
use timerstudy::{ExperimentResult, ExperimentSpec, FaultSpec, Os, Workload};
use wheel::Backend;
use workloads::trial_seed;

fn os_strategy() -> BoxedStrategy<Os> {
    prop_oneof![Just(Os::Linux), Just(Os::Vista)].boxed()
}

fn workload_strategy() -> BoxedStrategy<Workload> {
    prop_oneof![
        Just(Workload::Idle),
        Just(Workload::Firefox),
        Just(Workload::Skype),
        Just(Workload::Webserver),
        Just(Workload::Outlook),
    ]
    .boxed()
}

fn spec_strategy() -> BoxedStrategy<ExperimentSpec> {
    (
        os_strategy(),
        workload_strategy(),
        1u64..10_000,
        any::<u64>(),
    )
        .prop_map(|(os, workload, secs, seed)| {
            ExperimentSpec::new(os, workload, SimDuration::from_secs(secs), seed)
        })
        .boxed()
}

fn fault_strategy() -> BoxedStrategy<FaultSpec> {
    (
        0u16..1000,
        1u16..16,
        (
            0u64..100,
            0u64..100,
            0u16..1000,
            1000u32..8000,
            1000u32..8000,
        ),
        (0u64..5_000_000, 0u64..5_000_000),
        any::<u64>(),
    )
        .prop_map(|(permille, burst_len, net, clock, seed)| {
            let (start, dur, loss, rtt, jit) = net;
            let (jitter, quantum) = clock;
            let mut f = FaultSpec::none().with_seed(seed);
            f.drops = trace::DropFault {
                permille,
                burst_len,
            };
            f.net = netsim::NetFault {
                start: SimDuration::from_secs(start),
                duration: SimDuration::from_secs(dur),
                extra_loss_permille: loss,
                rtt_factor_permille: rtt,
                jitter_factor_permille: jit,
            };
            f.clock = simtime::ClockFault {
                jitter: SimDuration::from_nanos(jitter),
                quantum: SimDuration::from_nanos(quantum),
            };
            f
        })
        .boxed()
}

proptest! {
    /// Trial 0 must reproduce the historical single-seed runs exactly.
    #[test]
    fn trial_zero_keeps_base_seed(base in any::<u64>()) {
        prop_assert_eq!(trial_seed(base, 0), base);
    }

    /// Every trial of one experiment sees an independent random stream.
    #[test]
    fn trial_seeds_are_distinct(base in any::<u64>(), trials in 2u32..200) {
        let seeds: FoldSet<u64> = (0..trials).map(|t| trial_seed(base, t)).collect();
        prop_assert_eq!(seeds.len(), trials as usize);
    }

    /// Seed derivation is a pure function of (base, trial): launch order
    /// and worker placement cannot change which seed a trial gets.
    #[test]
    fn trial_seeds_are_order_independent(base in any::<u64>(), trials in 1u32..64) {
        let forward: Vec<u64> = (0..trials).map(|t| trial_seed(base, t)).collect();
        let backward: Vec<u64> = (0..trials).rev().map(|t| trial_seed(base, t)).collect();
        for (i, seed) in forward.iter().enumerate() {
            prop_assert_eq!(*seed, backward[trials as usize - 1 - i]);
        }
    }

    /// Neighbouring base seeds must not produce colliding trial seeds
    /// (the derivation mixes, it does not merely offset).
    #[test]
    fn neighbouring_bases_do_not_collide(base in 0u64..u64::MAX - 8) {
        let mut seen = FoldSet::default();
        for b in base..base + 8 {
            for t in 1..8u32 {
                prop_assert!(
                    seen.insert(trial_seed(b, t)),
                    "seed collision across neighbouring bases"
                );
            }
        }
    }

    /// `ExperimentSpec` keying: equal specs collapse to one cache entry,
    /// any parameter difference keeps entries apart, and `for_trial`
    /// derives keys deterministically.
    #[test]
    fn spec_keying_is_consistent(spec in spec_strategy(), trial in 0u32..32) {
        // Hash/Eq agree: a map keyed by spec finds the same spec.
        let mut map: FoldMap<ExperimentSpec, u32> = FoldMap::default();
        map.insert(spec, 1);
        map.insert(spec, 2);
        prop_assert_eq!(map.len(), 1);
        prop_assert_eq!(map.get(&spec).copied(), Some(2));

        // for_trial is deterministic and only rewrites the seed.
        let a = spec.for_trial(trial);
        let b = spec.for_trial(trial);
        prop_assert_eq!(a, b);
        prop_assert_eq!(a.os, spec.os);
        prop_assert_eq!(a.workload, spec.workload);
        prop_assert_eq!(a.duration, spec.duration);
        prop_assert_eq!(a.seed, trial_seed(spec.seed, trial));

        // Distinct trials key distinct cache entries.
        let next = spec.for_trial(trial + 1);
        map.insert(a, 3);
        map.insert(next, 4);
        prop_assert_eq!(map.get(&a).copied(), Some(3));
        prop_assert_eq!(map.get(&next).copied(), Some(4));
    }

    /// Changing any single field of a spec changes the cache key.
    #[test]
    fn distinct_specs_key_distinct_entries(spec in spec_strategy()) {
        let other_os = ExperimentSpec {
            os: match spec.os { Os::Linux => Os::Vista, Os::Vista => Os::Linux },
            ..spec
        };
        let other_duration = ExperimentSpec {
            duration: spec.duration + SimDuration::from_secs(1),
            ..spec
        };
        let other_seed = ExperimentSpec { seed: spec.seed ^ 1, ..spec };
        let other_faults = spec.with_faults(FaultSpec::ring_drops());
        let other_backend = spec.with_backend(Backend::Hashed);
        let mut map: FoldMap<ExperimentSpec, &str> = FoldMap::default();
        map.insert(spec, "base");
        map.insert(other_os, "os");
        map.insert(other_duration, "duration");
        map.insert(other_seed, "seed");
        map.insert(other_faults, "faults");
        map.insert(other_backend, "backend");
        prop_assert_eq!(map.len(), 6);
        prop_assert_eq!(map.get(&spec).copied(), Some("base"));
    }

    /// Specs that differ only in the timer-queue backend never share a
    /// cache entry: forcing a wheel can never be served the native run's
    /// report (their sim metrics differ even when figures agree).
    #[test]
    fn distinct_backends_never_collide(spec in spec_strategy()) {
        let forced = [Backend::Hierarchical, Backend::Hashed];
        let mut map: FoldMap<ExperimentSpec, Backend> = FoldMap::default();
        map.insert(spec, Backend::Native);
        for b in forced {
            map.insert(spec.with_backend(b), b);
        }
        // Native plus the two forced wheels: three distinct keys.
        prop_assert_eq!(map.len(), 1 + forced.len());
        prop_assert_eq!(map.get(&spec).copied(), Some(Backend::Native));
        for b in forced {
            prop_assert_eq!(map.get(&spec.with_backend(b)).copied(), Some(b));
        }
    }

    /// An explicit `with_backend(Native)` is the *same* cache key as the
    /// plain spec, mirroring the `FaultSpec::none()` rule: naming the
    /// default cannot fork the cache.
    #[test]
    fn native_backend_key_equals_plain_spec(spec in spec_strategy()) {
        let explicit = spec.with_backend(Backend::Native);
        prop_assert_eq!(explicit, spec);
        let mut map: FoldMap<ExperimentSpec, &str> = FoldMap::default();
        map.insert(spec, "plain");
        map.insert(explicit, "explicit");
        prop_assert_eq!(map.len(), 1);
    }

    /// Specs that differ only in their fault plane key distinct cache
    /// entries: a faulted run can never be served a clean run's report.
    #[test]
    fn distinct_fault_specs_never_collide(
        spec in spec_strategy(),
        a in fault_strategy(),
        b in fault_strategy(),
    ) {
        // (The vendored proptest has no prop_assume; identical draws are
        // simply vacuous cases.)
        if a == b {
            return Ok(());
        }
        let mut map: FoldMap<ExperimentSpec, &str> = FoldMap::default();
        map.insert(spec.with_faults(a), "a");
        map.insert(spec.with_faults(b), "b");
        prop_assert_eq!(map.len(), 2);
        prop_assert_eq!(map.get(&spec.with_faults(a)).copied(), Some("a"));
        prop_assert_eq!(map.get(&spec.with_faults(b)).copied(), Some("b"));
    }

    /// A spec with an explicit `FaultSpec::none()` is the *same* cache key
    /// as the plain spec: enabling the fault plane with everything off
    /// cannot fork the cache.
    #[test]
    fn none_faults_key_equals_plain_spec(spec in spec_strategy()) {
        let explicit = spec.with_faults(FaultSpec::none());
        prop_assert_eq!(explicit, spec);
        let mut map: FoldMap<ExperimentSpec, &str> = FoldMap::default();
        map.insert(spec, "plain");
        map.insert(explicit, "explicit");
        prop_assert_eq!(map.len(), 1);
        prop_assert_eq!(map.get(&spec).copied(), Some("explicit"));
    }
}

/// Trial 0 of a multi-trial run is the plain run of its base spec, and
/// the other trials' distinct seeds give distinct traces.
#[test]
fn trial_zero_is_the_base_run_and_other_trials_differ() {
    let base = ExperimentSpec::new(Os::Linux, Workload::Skype, SimDuration::from_secs(20), 42);
    let specs: Vec<ExperimentSpec> = (0..4).map(|t| base.for_trial(t)).collect();
    let trials = timerstudy::run_experiments_parallel(&specs);
    let report = |r: &ExperimentResult| serde_json::to_string(&r.report).unwrap();
    let counters = |r: &ExperimentResult| (r.records, r.wakeups, r.busy, r.logging_overhead);
    let single = timerstudy::run_experiment(base);
    assert_eq!(trials[0].spec, single.spec);
    assert_eq!(report(&trials[0]), report(&single), "trial 0 report");
    assert_eq!(counters(&trials[0]), counters(&single), "trial 0 counters");
    for (i, a) in trials.iter().enumerate() {
        for b in &trials[i + 1..] {
            assert_ne!(a.spec.seed, b.spec.seed, "trials must get distinct seeds");
            assert_ne!(
                report(a),
                report(b),
                "distinct trials should produce distinct traces"
            );
        }
    }
}
