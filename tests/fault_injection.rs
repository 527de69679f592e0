//! Fault-plane integration tests: experiments under an *active* fault
//! plane stay deterministic, account for every lost record exactly, and
//! surface the damage in the rendered tables.
//!
//! The two `matrix_mode_*` tests are rows of the mode matrix
//! (`tests/matrix/mod.rs`) for 1 % ring drops under fault seed 1; the
//! matrix's table in `tests/mode_matrix.rs` crosses every fault mode
//! with fault seeds 1, 2 and 3.

mod matrix;

use simtime::SimDuration;
use timerstudy::experiment::{run_experiments, table_specs};
use timerstudy::{render, ExperimentSpec, FaultSpec, Os, Workload};

use matrix::Check::*;
use matrix::{faults, mode_matrix, serial};

const SECS: u64 = 20;

fn faulted_specs(faults: FaultSpec) -> Vec<ExperimentSpec> {
    let duration = SimDuration::from_secs(SECS);
    let mut specs = table_specs(Os::Linux, duration, 9);
    specs.extend(table_specs(Os::Vista, duration, 9));
    specs.into_iter().map(|s| s.with_faults(faults)).collect()
}

#[test]
fn one_percent_drops_are_accounted_exactly() {
    let faults = FaultSpec::ring_drops().with_seed(3);
    let results = run_experiments(&faulted_specs(faults));
    for r in &results {
        let s = &r.report.summary;
        assert!(
            s.dropped_records > 0,
            "{:?}/{:?}: 1% drops over {} records lost nothing",
            r.spec.os,
            r.spec.workload,
            r.records
        );
        // Exact conservation: what the kernel logged either reached the
        // analyzer or is in the drop counter — nothing leaks.
        assert_eq!(
            s.accesses + s.dropped_records,
            r.records,
            "{:?}/{:?}: delivered + dropped != logged",
            r.spec.os,
            r.spec.workload
        );
        // Lost Sets leave end events unmatched; the reconstructor must
        // log orphans rather than fabricate episodes.
        assert!(
            s.set >= s.expired.saturating_sub(s.dropped_records),
            "expiries cannot outnumber surviving sets plus drops"
        );
    }
}

#[test]
fn summary_tables_surface_nonzero_drop_counts() {
    let faults = FaultSpec::ring_drops().with_seed(3);
    let results = run_experiments(&faulted_specs(faults));
    let (linux, vista) = results.split_at(4);
    for (os, half) in [("Linux", linux), ("Vista", vista)] {
        let table = render::summary_table(half);
        assert!(
            table.contains("Dropped records"),
            "{os} table missing drop accounting:\n{table}"
        );
        assert!(
            table.contains("Orphan ends"),
            "{os} table missing orphan accounting:\n{table}"
        );
        for r in half {
            assert!(
                table.contains(&r.report.summary.dropped_records.to_string()),
                "{os} table lost the exact drop count {} for {:?}:\n{table}",
                r.report.summary.dropped_records,
                r.spec.workload
            );
        }
    }
}

mode_matrix! {
    // row: base, spec transform, runner, checks;
    // A second serial run reproduces the first exactly, and the analysis
    // keeps its internal decomposition on every degraded trace.
    matrix_mode_is_deterministic_and_consistent:
        Faults, |s| s.with_faults(faults("drops", 1)), serial, &[Report, Counters, Conserved];
    // At least one workload's report feels the fault plane.
    matrix_mode_differs_from_clean_when_it_should:
        Faults, |s| s.with_faults(faults("drops", 1)), serial, &[Degraded];
}

#[test]
fn clock_jitter_and_net_burst_never_panic_with_drops_combined() {
    // The full matrix corner: everything on at once, over a couple of
    // seeds, on the most network- and trace-intensive workloads.
    for seed in [1u64, 2, 3] {
        let faults = FaultSpec::parse("all").unwrap().with_seed(seed);
        let duration = SimDuration::from_secs(SECS);
        let specs = [
            ExperimentSpec::new(Os::Linux, Workload::Firefox, duration, 9).with_faults(faults),
            ExperimentSpec::new(Os::Linux, Workload::Skype, duration, 9).with_faults(faults),
            ExperimentSpec::new(Os::Vista, Workload::Webserver, duration, 9).with_faults(faults),
        ];
        for r in run_experiments(&specs) {
            let s = &r.report.summary;
            assert_eq!(s.accesses + s.dropped_records, r.records);
            assert!(s.dropped_records > 0, "combined faults must drop records");
        }
    }
}
