//! Building run reports from experiment results.
//!
//! The sim-plane half of a [`telemetry::RunReport`] is assembled from the
//! per-experiment snapshots stored on [`ExperimentResult::metrics`] — not
//! from the live thread-local accumulators — because cached results carry
//! the snapshot of the run that originally produced them. That indirection
//! is the whole determinism story: serial, parallel and fully-cached
//! executions of the same specs aggregate the same snapshots and so emit
//! byte-identical `sim` sections.

use std::time::Duration;

use telemetry::{ExperimentMetrics, RunReport};

use crate::experiment::{ExperimentResult, ExperimentSpec};

/// A stable human-readable label for one experiment.
pub fn spec_label(spec: &ExperimentSpec) -> String {
    let mut label = format!(
        "{} {} {}s seed{}",
        spec.os.label(),
        spec.workload.label(),
        spec.duration.as_secs(),
        spec.seed
    );
    if spec.faults != crate::FaultSpec::none() {
        label.push_str(" faulted");
    }
    if spec.backend != wheel::Backend::Native {
        label.push_str(" backend=");
        label.push_str(spec.backend.label());
    }
    // `Fixed` is the degenerate mode that must reproduce the default
    // byte-identically — including this label — so only `Learned` runs
    // are marked.
    if spec.adaptive.is_learned() {
        label.push_str(" adaptive=");
        label.push_str(spec.adaptive.label());
    }
    label
}

/// Builds the run report for one batch of results.
///
/// `mode` names the execution path (`repro_all` writes `"parallel"`,
/// `"faulted"` or `"adaptive"`); `duration_secs`/`seed` echo the run
/// parameters; `threads` and `wall` describe this process and land in the
/// wall plane only.
pub fn run_report(
    results: &[ExperimentResult],
    mode: &str,
    duration_secs: u64,
    seed: u64,
    threads: usize,
    wall: Duration,
) -> RunReport {
    let experiments = results
        .iter()
        .map(|r| ExperimentMetrics {
            label: spec_label(&r.spec),
            sim: r.metrics.clone(),
            // The attribution table lives on the stored report, so cached
            // results replay the table of the run that produced them.
            attr: r.report.attribution.clone(),
        })
        .collect();
    RunReport::new(mode, duration_secs, seed, threads, wall, experiments)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, Os};
    use crate::Workload;
    use simtime::SimDuration;

    #[test]
    fn report_sim_section_comes_from_stored_snapshots() {
        let spec =
            crate::ExperimentSpec::new(Os::Linux, Workload::Idle, SimDuration::from_secs(2), 11);
        let result = run_experiment(spec);
        assert!(
            result.metrics.counter(telemetry::SimCounter::TraceRecords) > 0,
            "an experiment must record sim-plane events"
        );
        let report = run_report(
            std::slice::from_ref(&result),
            "serial",
            2,
            11,
            1,
            Duration::from_millis(5),
        );
        assert_eq!(report.experiments.len(), 1);
        assert_eq!(report.experiments[0].label, "Linux Idle 2s seed11");
        assert_eq!(report.sim_totals, result.metrics);
        assert!(
            !report.attr_totals.rows.is_empty(),
            "an experiment must attribute timer activity to origins"
        );
        assert!(report.attr_totals.total_sets() > 0);
        let parsed = telemetry::json::parse(&report.to_json()).expect("valid JSON");
        telemetry::report::validate_value(&parsed).expect("schema-valid");
    }
}
