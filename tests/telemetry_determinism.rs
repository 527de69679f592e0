//! Differential harness for the telemetry sim plane.
//!
//! Sim-plane metrics are pure functions of an [`ExperimentSpec`]: they
//! are derived only from virtual time and event counts, never from
//! wall-clock time, thread scheduling or cache state. These tests pin
//! that contract the same way `parallel_determinism.rs` pins it for
//! reports — per-experiment snapshots must be bit-identical across the
//! serial, parallel and cached execution paths, and the aggregated run
//! reports must agree on their canonical `sim` sections.

use simtime::SimDuration;
use telemetry::SimCounter;
use timerstudy::cache::ExperimentCache;
use timerstudy::experiment::{run_experiments, table_specs};
use timerstudy::parallel::run_experiments_parallel_with;
use timerstudy::{ExperimentResult, ExperimentSpec, Os, Workload};

const SECS: u64 = 20;

fn specs_under_test() -> Vec<ExperimentSpec> {
    let duration = SimDuration::from_secs(SECS);
    let mut specs = table_specs(Os::Linux, duration, 1234);
    specs.extend(table_specs(Os::Vista, duration, 1234));
    specs.push(ExperimentSpec::new(
        Os::Vista,
        Workload::Outlook,
        duration,
        1234,
    ));
    specs
}

fn assert_sim_plane_identical(serial: &[ExperimentResult], other: &[ExperimentResult], what: &str) {
    assert_eq!(serial.len(), other.len(), "{what}: result count differs");
    for (s, o) in serial.iter().zip(other) {
        assert_eq!(s.spec, o.spec, "{what}: results out of order");
        assert_eq!(
            s.metrics, o.metrics,
            "{what}: sim-plane snapshot differs for {:?}/{:?}",
            s.spec.os, s.spec.workload
        );
    }
}

#[test]
fn sim_plane_identical_across_serial_parallel_and_cached() {
    let specs = specs_under_test();
    let serial = run_experiments(&specs);

    // Every experiment must actually have recorded sim-plane events —
    // an all-zero snapshot would make the equality below vacuous.
    for result in &serial {
        assert!(
            result.metrics.counter(SimCounter::TraceRecords) > 0,
            "no sim-plane events for {:?}/{:?}",
            result.spec.os,
            result.spec.workload
        );
    }

    for threads in [2, 4, 9] {
        let parallel = run_experiments_parallel_with(&specs, threads);
        assert_sim_plane_identical(&serial, &parallel, &format!("{threads} threads"));
    }

    // Cached path: duplicates are served the original run's snapshot.
    let mut doubled = specs.clone();
    doubled.extend(specs.iter().copied());
    let cache = ExperimentCache::new();
    let results = cache.run_all(&doubled);
    assert_sim_plane_identical(&serial, &results[..specs.len()], "cache, first half");
    assert_sim_plane_identical(&serial, &results[specs.len()..], "cache, second half");
    let warm = cache.run_all(&specs);
    assert_sim_plane_identical(&serial, &warm, "cache, warm rerun");
}

#[test]
fn run_reports_agree_on_the_canonical_sim_section() {
    let specs = specs_under_test();
    let serial = run_experiments(&specs);
    let parallel = run_experiments_parallel_with(&specs, 4);

    // Wall-plane inputs (threads, wall time) deliberately differ between
    // the two reports; the sim section must be identical anyway.
    let report_a = timerstudy::run_report(
        &serial,
        "serial",
        SECS,
        1234,
        1,
        std::time::Duration::from_millis(100),
    );
    let report_b = timerstudy::run_report(
        &parallel,
        "parallel",
        SECS,
        1234,
        4,
        std::time::Duration::from_millis(999),
    );

    let value_a = telemetry::json::parse(&report_a.to_json()).expect("report A parses");
    let value_b = telemetry::json::parse(&report_b.to_json()).expect("report B parses");
    telemetry::report::validate_value(&value_a).expect("report A schema-valid");
    telemetry::report::validate_value(&value_b).expect("report B schema-valid");
    assert_eq!(
        telemetry::report::sim_section_canonical(&value_a).expect("canonical A"),
        telemetry::report::sim_section_canonical(&value_b).expect("canonical B"),
        "canonical sim sections drifted between serial and parallel runs"
    );
}
