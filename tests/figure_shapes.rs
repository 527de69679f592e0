//! Golden *shape* tests for the figure drivers.
//!
//! The committed `artifacts/` directory holds a full-length reference
//! run. Exact counts depend on the trace duration, so these tests pin
//! the parts of each artifact that must not drift no matter how long the
//! simulation runs: titles, table row labels and column headers, section
//! headers, scatter sub-plot labels, and which artifacts carry CSV data.

use std::collections::BTreeMap;
use std::path::Path;

use adaptive::AdaptivePolicy;
use simtime::SimDuration;
use timerstudy::figures::{reproduce, Artifact};
use timerstudy::FaultSpec;

/// Indices (in paper order) whose artifacts carry CSV data.
const CSV_INDICES: [usize; 7] = [0, 4, 5, 10, 11, 12, 13];

/// Loads the committed reference artifacts, keyed by paper-order index.
fn golden_artifacts() -> BTreeMap<usize, (String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    let mut golden = BTreeMap::new();
    for entry in std::fs::read_dir(&dir).expect("artifacts/ directory present") {
        let path = entry.expect("readable artifacts entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("txt") {
            continue;
        }
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let index: usize = name
            .split('_')
            .next()
            .and_then(|i| i.parse().ok())
            .expect("artifact file names start with a two-digit index");
        let text = std::fs::read_to_string(&path).expect("readable artifact");
        golden.insert(index, (name, text));
    }
    golden
}

fn generated_artifacts() -> Vec<Artifact> {
    // Short traces: the shape checks below are duration-independent.
    let (_, artifacts) = reproduce(
        SimDuration::from_secs(20),
        7,
        FaultSpec::none(),
        AdaptivePolicy::Off,
    );
    artifacts
}

/// The first line, e.g. `=== Table 1: Linux trace summary ===`.
fn title_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

/// Leading alphabetic row labels of a rendered table (skips the title,
/// column header, and rule lines).
fn row_labels(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| {
            l.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
                && !l.starts_with("===")
                && !l.starts_with("group")
        })
        .map(|l| l.split_whitespace().next().unwrap().to_owned())
        .collect()
}

/// `-- Idle ... --` style section headers, truncated to the workload
/// name (coverage percentages depend on duration).
fn section_headers(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.starts_with("-- "))
        .map(|l| l.split_whitespace().take(2).collect::<Vec<_>>().join(" "))
        .collect()
}

#[test]
fn artifact_set_matches_the_committed_run() {
    let golden = golden_artifacts();
    let generated = generated_artifacts();
    assert_eq!(
        generated.len(),
        golden.len(),
        "reproduce must emit one artifact per committed reference file"
    );
    for (index, artifact) in generated.iter().enumerate() {
        let (name, text) = golden.get(&index).expect("reference artifact exists");
        assert_eq!(
            title_line(&artifact.printable()),
            title_line(text),
            "title drifted for artifacts/{name}.txt"
        );
    }
}

#[test]
fn tables_keep_their_rows_and_columns() {
    let golden = golden_artifacts();
    let generated = generated_artifacts();
    // Tables 1 and 2 (indices 1, 2): same row labels, same workloads.
    for index in [1usize, 2] {
        let (name, text) = &golden[&index];
        let ours = &generated[index].text;
        assert_eq!(
            row_labels(ours),
            row_labels(text),
            "summary rows drifted for artifacts/{name}.txt"
        );
        let golden_header: Vec<&str> = text.lines().nth(1).unwrap().split_whitespace().collect();
        let our_header: Vec<&str> = ours.lines().next().unwrap().split_whitespace().collect();
        assert_eq!(
            our_header, golden_header,
            "workload columns drifted for artifacts/{name}.txt"
        );
    }
    // Figure 2 (index 3): pattern rows are fixed by the classifier.
    let (name, text) = &golden[&3];
    assert_eq!(
        row_labels(&generated[3].text),
        row_labels(text),
        "pattern rows drifted for artifacts/{name}.txt"
    );
    // Table 3 (index 9): the header names its columns.
    let (name, text) = &golden[&9];
    let golden_header: Vec<&str> = text.lines().nth(1).unwrap().split_whitespace().collect();
    let our_header: Vec<&str> = generated[9]
        .text
        .lines()
        .next()
        .unwrap()
        .split_whitespace()
        .collect();
    assert_eq!(
        our_header, golden_header,
        "provenance columns drifted for artifacts/{name}.txt"
    );
}

#[test]
fn value_charts_keep_their_workload_sections() {
    let golden = golden_artifacts();
    let generated = generated_artifacts();
    // Figures 3, 5, 6, 7 (indices 4, 6, 7, 8): one section per workload.
    for index in [4usize, 6, 7, 8] {
        let (name, text) = &golden[&index];
        assert_eq!(
            section_headers(&generated[index].text),
            section_headers(text),
            "workload sections drifted for artifacts/{name}.txt"
        );
    }
}

#[test]
fn scatter_plots_keep_both_os_panels() {
    let golden = golden_artifacts();
    let generated = generated_artifacts();
    // Figures 8-11 (indices 10-13): a Linux panel then a Vista panel.
    for index in 10usize..=13 {
        let (name, text) = &golden[&index];
        let ours = &generated[index].text;
        for panel in ["(a) Linux", "(b) Vista"] {
            let golden_label = text
                .lines()
                .find(|l| l.starts_with(panel))
                .unwrap_or_else(|| panic!("artifacts/{name}.txt lost its '{panel}' panel"));
            assert!(
                ours.lines().any(|l| l == golden_label),
                "generated figure {index} lost panel '{golden_label}'"
            );
        }
    }
}

#[test]
fn csv_presence_matches_the_committed_run() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("artifacts");
    let generated = generated_artifacts();
    for (index, artifact) in generated.iter().enumerate() {
        let expect_csv = CSV_INDICES.contains(&index);
        assert_eq!(
            artifact.csv.is_some(),
            expect_csv,
            "csv presence drifted for artifact {index} ({})",
            artifact.title
        );
        // The committed run agrees with the code.
        let on_disk = std::fs::read_dir(&dir)
            .expect("artifacts/ directory present")
            .filter_map(|e| e.ok())
            .any(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                name.starts_with(&format!("{index:02}_")) && name.ends_with(".csv")
            });
        assert_eq!(
            on_disk, expect_csv,
            "committed csv files disagree for artifact {index}"
        );
    }
    // Figure 1's CSV keeps its schema.
    assert!(
        generated[0]
            .csv
            .as_deref()
            .is_some_and(|c| c.starts_with("second,group,sets\n")),
        "figure 1 csv header drifted"
    );
}
