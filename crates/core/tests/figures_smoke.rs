//! Artifact-generation smoke tests: every table/figure driver renders
//! non-trivially from scaled-down runs.

use adaptive::AdaptivePolicy;
use simtime::SimDuration;
use timerstudy::experiment::{run_experiment, run_table_workloads, ExperimentSpec};
use timerstudy::{figures, FaultSpec, Os, Workload};

#[test]
fn all_artifacts_render() {
    let duration = SimDuration::from_secs(45);
    let linux = run_table_workloads(Os::Linux, duration, 5);
    let vista = run_table_workloads(Os::Vista, duration, 5);
    let outlook = run_experiment(ExperimentSpec::new(
        Os::Vista,
        Workload::Outlook,
        duration,
        5,
    ));

    let artifacts = vec![
        figures::fig01(&outlook),
        figures::table1(&linux),
        figures::table2(&vista),
        figures::fig02(&linux),
        figures::fig03(&linux),
        figures::fig04(&linux[0]),
        figures::fig05(&linux),
        figures::fig06(&linux),
        figures::fig07(&vista),
        figures::table3(&linux),
        figures::fig_scatter(&linux[0], &vista[0], 8),
        figures::fig_scatter(&linux[3], &vista[3], 11),
    ];
    for a in &artifacts {
        assert!(!a.title.is_empty());
        assert!(
            a.text.lines().count() >= 3,
            "artifact '{}' looks empty:\n{}",
            a.title,
            a.text
        );
    }
    // The printable form carries the title banner.
    assert!(artifacts[0].printable().starts_with("=== Figure 1"));
    // CSV artifacts parse as CSV-ish (header + rows).
    let csv = artifacts[0].csv.as_ref().unwrap();
    assert!(csv.starts_with("second,group,sets\n"));
    assert!(csv.lines().count() > 10);
}

#[test]
fn reproduce_is_complete() {
    let (_, artifacts) = figures::reproduce(
        SimDuration::from_secs(30),
        5,
        FaultSpec::none(),
        AdaptivePolicy::Off,
    );
    // 1 rate figure + 3 tables + 6 value/pattern/dot figures + 4 scatter.
    assert_eq!(artifacts.len(), 14);
    let titles: Vec<&str> = artifacts.iter().map(|a| a.title.as_str()).collect();
    for needle in [
        "Figure 1",
        "Table 1",
        "Table 2",
        "Figure 2",
        "Figure 3",
        "Figure 4",
        "Figure 5",
        "Figure 6",
        "Figure 7",
        "Table 3",
        "Figure 8",
        "Figure 9",
        "Figure 10",
        "Figure 11",
    ] {
        assert!(
            titles.iter().any(|t| t.starts_with(&format!("{needle}:"))),
            "missing {needle} in {titles:?}"
        );
    }
}
