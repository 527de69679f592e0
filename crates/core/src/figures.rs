//! One driver per table and figure of the paper.
//!
//! Each function turns experiment results into a printable [`Artifact`]
//! (text rendering plus CSV data). [`reproduce`] runs the nine
//! experiments and assembles every artifact for the `bench` crate's
//! `repro_all` binary; `EXPERIMENTS.md` records a full run.

use std::collections::BTreeMap;

use analysis::provenance::ProvenanceRow;
use analysis::values;
use simtime::SimDuration;

use crate::experiment::{table_specs, ExperimentResult, ExperimentSpec, Os};
use crate::render;
use crate::Workload;

/// A rendered reproduction artifact.
#[derive(Debug, Clone)]
pub struct Artifact {
    /// Title, e.g. "Table 1: Linux trace summary".
    pub title: String,
    /// The text rendering (table or ASCII figure).
    pub text: String,
    /// Machine-readable data, when applicable.
    pub csv: Option<String>,
}

impl Artifact {
    /// Formats the artifact for printing.
    pub fn printable(&self) -> String {
        format!("=== {} ===\n{}\n", self.title, self.text)
    }
}

/// Table 1: the Linux trace summary.
pub fn table1(results: &[ExperimentResult]) -> Artifact {
    Artifact {
        title: "Table 1: Linux trace summary".into(),
        text: render::summary_table(results),
        csv: None,
    }
}

/// Table 2: the Vista trace summary.
pub fn table2(results: &[ExperimentResult]) -> Artifact {
    Artifact {
        title: "Table 2: Vista trace summary".into(),
        text: render::summary_table(results),
        csv: None,
    }
}

/// Figure 1: timer usage frequency on the Vista desktop (90 s excerpt).
pub fn fig01(result: &ExperimentResult) -> Artifact {
    let series = &result.report.rate_series;
    let names = ["Outlook", "Browser", "System", "Kernel"];
    let rows: Vec<(&str, &[u32])> = names
        .iter()
        .filter_map(|&n| series.get(n).map(|v| (n, v.as_slice())))
        .collect();
    let mut csv = String::from("second,group,sets\n");
    for (name, s) in &rows {
        for (sec, &count) in s.iter().enumerate() {
            csv.push_str(&format!("{sec},{name},{count}\n"));
        }
    }
    Artifact {
        title: "Figure 1: timer usage frequency in Vista (timers set per second)".into(),
        text: render::rate_table(&rows, 90),
        csv: Some(csv),
    }
}

/// Figure 2: common Linux timer usage patterns.
pub fn fig02(results: &[ExperimentResult]) -> Artifact {
    let mixes: Vec<(&str, &analysis::PatternMix)> = results
        .iter()
        .map(|r| (r.spec.workload.label(), &r.report.pattern_mix))
        .collect();
    Artifact {
        title: "Figure 2: common Linux timer usage patterns (% of timers)".into(),
        text: render::pattern_chart(&mixes),
        csv: None,
    }
}

/// Figure 3: common Linux timer values (unfiltered, ≥ 2 %).
pub fn fig03(results: &[ExperimentResult]) -> Artifact {
    let mut text = String::new();
    for r in results {
        text.push_str(&render::values_chart(
            &r.report.values_all,
            true,
            &format!(
                "-- {} (rows cover {:.0}% of sets) --",
                r.spec.workload.label(),
                r.report.values_all_coverage
            ),
        ));
        text.push('\n');
    }
    Artifact {
        title: "Figure 3: common Linux timer values (>= 2%)".into(),
        text,
        csv: Some(
            results
                .iter()
                .map(|r| {
                    format!(
                        "# {}\n{}",
                        r.spec.workload.label(),
                        render::values_csv(&r.report.values_all)
                    )
                })
                .collect(),
        ),
    }
}

/// Figure 4: the X select countdown dot plot.
pub fn fig04(result: &ExperimentResult) -> Artifact {
    let dots = &result.report.fig4_dots;
    let duration = result.spec.duration.as_secs_f64();
    Artifact {
        title: "Figure 4: dot plot of X timer usage via select (countdown idiom)".into(),
        text: render::dots_plot(dots, duration, "Xorg select timeout values over time"),
        csv: Some(render::dots_csv(dots)),
    }
}

/// Figure 5: common Linux values with X/icewm filtered.
pub fn fig05(results: &[ExperimentResult]) -> Artifact {
    let mut text = String::new();
    for r in results {
        text.push_str(&render::values_chart(
            &r.report.values_filtered,
            true,
            &format!(
                "-- {} (filtered; rows cover {:.0}% of remaining sets) --",
                r.spec.workload.label(),
                r.report.values_filtered_coverage
            ),
        ));
        text.push('\n');
    }
    Artifact {
        title: "Figure 5: common Linux timeout values (>= 2%), X/icewm filtered".into(),
        text,
        csv: None,
    }
}

/// Figure 6: Linux syscall-only timer values.
pub fn fig06(results: &[ExperimentResult]) -> Artifact {
    let mut text = String::new();
    for r in results {
        text.push_str(&render::values_chart(
            &r.report.values_user,
            false,
            &format!("-- {} (user-space sets only) --", r.spec.workload.label()),
        ));
        text.push('\n');
    }
    Artifact {
        title: "Figure 6: common Linux syscall timer values (>= 2%)".into(),
        text,
        csv: None,
    }
}

/// Figure 7: common Vista timeout values.
pub fn fig07(results: &[ExperimentResult]) -> Artifact {
    let mut text = String::new();
    for r in results {
        text.push_str(&render::values_chart(
            &r.report.values_all,
            false,
            &format!(
                "-- {} (rows cover {:.0}% of sets) --",
                r.spec.workload.label(),
                r.report.values_all_coverage
            ),
        ));
        text.push('\n');
    }
    Artifact {
        title: "Figure 7: common Vista timeout values (>= 2%)".into(),
        text,
        csv: None,
    }
}

/// Figures 8–11: expiry/cancellation scatter for one workload, both OSes.
pub fn fig_scatter(linux: &ExperimentResult, vista: &ExperimentResult, figure_no: u32) -> Artifact {
    let workload = linux.spec.workload.label();
    let mut text = render::scatter_plot(&linux.report.scatter, &format!("(a) Linux — {workload}"));
    text.push('\n');
    text.push_str(&render::scatter_plot(
        &vista.report.scatter,
        &format!("(b) Vista — {workload}"),
    ));
    Artifact {
        title: format!("Figure {figure_no}: timeout expiry/cancellation vs set value ({workload})"),
        text,
        csv: Some(format!(
            "# linux\n{}# vista\n{}",
            render::scatter_csv(&linux.report.scatter),
            render::scatter_csv(&vista.report.scatter)
        )),
    }
}

/// Table 3: origins and classification of frequent Linux timeout values,
/// merged across the four workloads.
pub fn table3(results: &[ExperimentResult]) -> Artifact {
    // Merge by value bucket, keeping the highest-count origins.
    let mut by_value: BTreeMap<u64, ProvenanceRow> = BTreeMap::new();
    for r in results {
        for row in &r.report.provenance {
            let key = values::bucket(SimDuration::from_secs_f64(row.seconds));
            let entry = by_value.entry(key).or_insert_with(|| ProvenanceRow {
                seconds: row.seconds,
                count: 0,
                origins: Vec::new(),
            });
            entry.count += row.count;
            for (origin, class, count) in &row.origins {
                match entry.origins.iter_mut().find(|(o, _, _)| o == origin) {
                    Some((_, _, c)) => *c += count,
                    None => entry.origins.push((origin.clone(), class.clone(), *count)),
                }
            }
        }
    }
    let mut rows: Vec<ProvenanceRow> = by_value.into_values().collect();
    for r in &mut rows {
        r.origins.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        r.origins.truncate(4);
    }
    Artifact {
        title: "Table 3: origins and classification of frequent Linux timeout values".into(),
        text: render::provenance_table(&rows),
        csv: None,
    }
}

/// Every distinct experiment the full reproduction needs, in a fixed
/// order: the four Table 1 workloads on Linux, the four Table 2
/// workloads on Vista, then the Figure 1 Outlook desktop (90 s, Vista).
pub fn paper_specs(duration: SimDuration, seed: u64) -> Vec<ExperimentSpec> {
    let mut specs = table_specs(Os::Linux, duration, seed);
    specs.extend(table_specs(Os::Vista, duration, seed));
    specs.push(ExperimentSpec::new(
        Os::Vista,
        Workload::Outlook,
        crate::FIG1_DURATION,
        seed,
    ));
    specs
}

/// Runs everything the paper reports under one fault plane and one
/// adaptive timeout policy, returning the experiment results and the
/// artifacts in paper order. This is the `repro_all` entry point: the
/// nine distinct experiments run in parallel through the process-wide
/// cache.
///
/// `Off` runs the nine paper specs once and returns the paper artifacts.
/// `Learned` runs each spec **twice** on the same seeded trace — once
/// with the historical constants (`Off`), once learned — returning the
/// baseline run's paper artifacts followed by the three counterfactual
/// figures, with both runs' results concatenated (baseline first) so run
/// reports carry both sides of the comparison. The baseline half is a
/// plain `Off` run: the same specs, cache entries and output
/// (`tests/mode_matrix.rs`, row `fixed_policy`). The fault plane and the
/// policy are part of the experiment cache key, so differently
/// configured runs never alias.
pub fn reproduce(
    duration: SimDuration,
    seed: u64,
    faults: crate::FaultSpec,
    policy: adaptive::AdaptivePolicy,
) -> (Vec<ExperimentResult>, Vec<Artifact>) {
    let run = |policy| {
        let specs: Vec<ExperimentSpec> = paper_specs(duration, seed)
            .into_iter()
            .map(|s| s.with_faults(faults).with_adaptive(policy))
            .collect();
        crate::cache::global().run_all(&specs)
    };
    let mut results = run(adaptive::AdaptivePolicy::Off);
    let mut artifacts = assemble(&results);
    if policy.is_learned() {
        let learned = run(adaptive::AdaptivePolicy::Learned);
        artifacts.extend(crate::counterfactual::counterfactual_artifacts(
            &results, &learned,
        ));
        results.extend(learned);
    }
    (results, artifacts)
}

/// Assembles the paper's artifacts from results laid out as
/// [`paper_specs`] returns them (4 Linux, 4 Vista, 1 Outlook).
pub fn assemble(results: &[ExperimentResult]) -> Vec<Artifact> {
    let _assemble_span = telemetry::span("stage.assemble");
    assert_eq!(
        results.len(),
        9,
        "assemble() expects the nine paper_specs results"
    );
    let (linux, rest) = results.split_at(4);
    let (vista, outlook) = rest.split_at(4);
    let outlook = &outlook[0];
    let mut artifacts = vec![
        fig01(outlook),
        table1(linux),
        table2(vista),
        fig02(linux),
        fig03(linux),
        fig04(&linux[0]),
        fig05(linux),
        fig06(linux),
        fig07(vista),
        table3(linux),
    ];
    // Figures 8–11: Idle, Skype, Firefox, Webserver in paper order.
    for (i, (l, v)) in linux.iter().zip(vista.iter()).enumerate() {
        artifacts.push(fig_scatter(l, v, 8 + i as u32));
    }
    artifacts
}
