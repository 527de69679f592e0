//! Property tests for timer-provenance attribution stability.
//!
//! The attribution table rides on the stored [`analysis::Report`], so
//! every execution mode that promises byte-identical reports must also
//! agree on every origin label and every per-origin histogram: a live
//! serial run, a cached replay, and a run with the other wheel forced.

use proptest::prelude::*;
use simtime::SimDuration;
use timerstudy::{Backend, ExperimentSpec, Os, Workload};

fn os_strategy() -> BoxedStrategy<Os> {
    prop_oneof![Just(Os::Linux), Just(Os::Vista)].boxed()
}

// These properties run real experiments, so they use short traces and few
// cases — the structure (not the volume) is what's random here.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// OriginId -> label resolution and the folded per-origin tables are
    /// identical between the live run, the cached replay and a
    /// forced-wheel run of the same spec.
    #[test]
    fn attribution_is_identical_across_execution_modes(
        os in os_strategy(),
        seed in any::<u64>(),
    ) {
        let spec = ExperimentSpec::new(os, Workload::Idle, SimDuration::from_secs(2), seed);
        let live = timerstudy::run_experiment(spec);
        prop_assert!(
            !live.report.attribution.rows.is_empty(),
            "an experiment must attribute timer activity"
        );
        // The serde stand-in serialises via Debug, so string equality is
        // bit-identity of the whole table: labels, counts, histograms.
        let want = serde_json::to_string(&live.report.attribution).unwrap();

        let cache = timerstudy::cache::ExperimentCache::new();
        cache.run_all(std::slice::from_ref(&spec));
        let replay = cache.run_all(std::slice::from_ref(&spec));
        prop_assert_eq!(cache.hits(), 1, "second run must be a cache hit");
        prop_assert_eq!(
            &want,
            &serde_json::to_string(&replay[0].report.attribution).unwrap()
        );

        // Linux runs the hierarchical wheel natively and Vista the hashed
        // rings; force the other one.
        let other = match os {
            Os::Linux => Backend::Hashed,
            Os::Vista => Backend::Hierarchical,
        };
        let forced = timerstudy::run_experiment(spec.with_backend(other));
        prop_assert_eq!(
            &want,
            &serde_json::to_string(&forced.report.attribution).unwrap()
        );
    }

    /// Attribution rows stay canonically ordered (sets descending, label
    /// ascending) and internally consistent: expirations + cancels never
    /// exceed the lifecycle events that could end a set.
    #[test]
    fn attribution_rows_are_canonical_and_consistent(
        os in os_strategy(),
        seed in any::<u64>(),
    ) {
        let spec = ExperimentSpec::new(os, Workload::Idle, SimDuration::from_secs(2), seed);
        let result = timerstudy::run_experiment(spec);
        let rows = &result.report.attribution.rows;
        for pair in rows.windows(2) {
            let ordered = pair[0].sets > pair[1].sets
                || (pair[0].sets == pair[1].sets && pair[0].label < pair[1].label);
            prop_assert!(ordered, "rows must sort (sets desc, label asc)");
        }
        for row in rows {
            prop_assert_eq!(
                row.timeout_ns.count(),
                row.sets,
                "every set records exactly one timeout value"
            );
            prop_assert_eq!(
                row.slack_ns.count(),
                row.expirations,
                "every expiry records exactly one slack value"
            );
        }
    }
}
