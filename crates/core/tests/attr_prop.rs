//! Property tests for timer-provenance attribution tables.
//!
//! The attribution table rides on the stored [`analysis::Report`], so
//! every execution mode that promises byte-identical reports also agrees
//! on every origin label and every per-origin histogram; the
//! `tests/mode_matrix.rs` rows pin that. These properties pin each
//! table's own ordering and bookkeeping.

use proptest::prelude::*;
use simtime::SimDuration;
use timerstudy::{ExperimentSpec, Os, Workload};

fn os_strategy() -> BoxedStrategy<Os> {
    prop_oneof![Just(Os::Linux), Just(Os::Vista)].boxed()
}

// These properties run real experiments, so they use short traces and few
// cases — the structure (not the volume) is what's random here.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

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
