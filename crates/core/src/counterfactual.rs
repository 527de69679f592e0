//! Fixed-vs-adaptive counterfactual figures (the paper's §5 "what if").
//!
//! `repro_all --adaptive` runs every experiment twice on the same seeded
//! trace — once with the historical constants ([`adaptive::AdaptivePolicy::Off`])
//! and once with learned timeouts ([`adaptive::AdaptivePolicy::Learned`]) —
//! and these builders turn the two result sets into the three
//! counterfactual artifacts §5 asks for:
//!
//! 1. spurious timer expirations avoided, per origin (riding the
//!    attribution plane — which timers stopped firing for nothing);
//! 2. dynticks sleep residency (the longest-idle-interval histogram as
//!    the energy proxy: longer unbroken sleeps = deeper power states);
//! 3. retransmit latency (virtual time spent waiting in
//!    retransmission-class timers before they fired).
//!
//! Every number here is a pure function of the per-experiment sim
//! snapshots and attribution tables, which are themselves invariant
//! across serial, parallel and cached execution — so the counterfactual
//! artifacts inherit the same byte-identity guarantees as the paper
//! artifacts.

use telemetry::hist::LogHistogram;
use telemetry::{OriginTable, SimCounter, SimHist};

use crate::experiment::ExperimentResult;
use crate::figures::Artifact;

/// Most origin rows shown in the text rendering of the per-origin table
/// (the CSV always carries every row).
const ORIGIN_ROWS_SHOWN: usize = 24;

/// Short per-experiment label (`"Linux Webserver"`), unique across the
/// nine paper specs.
fn pair_label(r: &ExperimentResult) -> String {
    format!("{} {}", r.spec.os.label(), r.spec.workload.label())
}

/// Asserts that `fixed` and `learned` describe the same seeded
/// experiments, differing only in policy.
fn check_pairing(fixed: &[ExperimentResult], learned: &[ExperimentResult]) {
    assert_eq!(
        fixed.len(),
        learned.len(),
        "counterfactual needs one learned run per fixed run"
    );
    for (f, l) in fixed.iter().zip(learned.iter()) {
        assert!(
            f.spec.os == l.spec.os
                && f.spec.workload == l.spec.workload
                && f.spec.duration == l.spec.duration
                && f.spec.seed == l.spec.seed,
            "counterfactual pairs must share os/workload/duration/seed"
        );
    }
}

/// All three counterfactual artifacts, in report order.
pub fn counterfactual_artifacts(
    fixed: &[ExperimentResult],
    learned: &[ExperimentResult],
) -> Vec<Artifact> {
    check_pairing(fixed, learned);
    vec![
        expirations_by_origin(fixed, learned),
        sleep_residency(fixed, learned),
        retransmit_latency(fixed, learned),
    ]
}

/// Counterfactual 1: per-origin expiration deltas from the attribution
/// plane — which timers stopped firing for nothing once learned.
fn expirations_by_origin(fixed: &[ExperimentResult], learned: &[ExperimentResult]) -> Artifact {
    let merge = |results: &[ExperimentResult]| -> OriginTable {
        let mut t = OriginTable::empty();
        for r in results {
            t.merge(&r.report.attribution);
        }
        t
    };
    let f = merge(fixed);
    let l = merge(learned);
    // Union of origins, keyed by label: (fixed expirations, learned
    // expirations). BTreeMap keeps the union order deterministic before
    // the final sort.
    let mut by_origin: std::collections::BTreeMap<&str, (u64, u64)> =
        std::collections::BTreeMap::new();
    for row in &f.rows {
        by_origin.entry(&row.label).or_default().0 = row.expirations;
    }
    for row in &l.rows {
        by_origin.entry(&row.label).or_default().1 = row.expirations;
    }
    let mut rows: Vec<(&str, u64, u64, i64)> = by_origin
        .into_iter()
        .filter(|(_, (fx, ln))| fx + ln > 0)
        .map(|(label, (fx, ln))| (label, fx, ln, fx as i64 - ln as i64))
        .collect();
    // Largest savings first; regressions (negative avoided) sink to the
    // bottom, ties break on label so the rendering is canonical.
    rows.sort_by(|a, b| b.3.cmp(&a.3).then_with(|| a.0.cmp(b.0)));

    let total_fixed: u64 = rows.iter().map(|r| r.1).sum();
    let total_learned: u64 = rows.iter().map(|r| r.2).sum();
    let avoided = total_fixed as i64 - total_learned as i64;
    let pct = if total_fixed > 0 {
        avoided as f64 * 100.0 / total_fixed as f64
    } else {
        0.0
    };

    let mut text = format!(
        "{:<44} {:>12} {:>12} {:>12}\n",
        "origin", "fixed", "learned", "avoided"
    );
    // Only origins whose expiration count actually moved make the text
    // table (the CSV carries every origin); unchanged ones are counted.
    let changed: Vec<&(&str, u64, u64, i64)> = rows.iter().filter(|r| r.3 != 0).collect();
    for (label, fx, ln, delta) in changed.iter().take(ORIGIN_ROWS_SHOWN) {
        text.push_str(&format!("{label:<44} {fx:>12} {ln:>12} {delta:>+12}\n"));
    }
    if changed.len() > ORIGIN_ROWS_SHOWN {
        text.push_str(&format!(
            "... {} more changed origins in the CSV\n",
            changed.len() - ORIGIN_ROWS_SHOWN
        ));
    }
    text.push_str(&format!(
        "({} origins with unchanged expiration counts omitted)\n",
        rows.len() - changed.len()
    ));
    text.push_str(&format!(
        "total: fixed={total_fixed} learned={total_learned} avoided={avoided:+} ({pct:.1}% of fixed expirations)\n"
    ));

    let mut csv = String::from("origin,fixed_expirations,learned_expirations,avoided\n");
    for (label, fx, ln, delta) in &rows {
        csv.push_str(&format!("{label},{fx},{ln},{delta}\n"));
    }
    Artifact {
        title: "Counterfactual 1: spurious timer expirations avoided per origin (fixed vs learned)"
            .into(),
        text,
        csv: Some(csv),
    }
}

/// The upper bound (µs) of the longest non-empty bucket, or 0 when the
/// histogram is empty.
fn longest_bucket_bound(hist: &LogHistogram) -> u64 {
    hist.nonzero()
        .last()
        .map(|(i, _)| LogHistogram::bucket_bounds(i).1)
        .unwrap_or(0)
}

/// Counterfactual 2: the dynticks sleep-residency (longest-idle-interval)
/// histogram — the energy proxy.
fn sleep_residency(fixed: &[ExperimentResult], learned: &[ExperimentResult]) -> Artifact {
    let mut text = format!(
        "{:<20} {:>11} {:>11} {:>12} {:>12} {:>13} {:>13}\n",
        "experiment",
        "sleeps(f)",
        "sleeps(l)",
        "mean_us(f)",
        "mean_us(l)",
        "longest(f)",
        "longest(l)"
    );
    let mut merged_f = LogHistogram::new();
    let mut merged_l = LogHistogram::new();
    for (fr, lr) in fixed.iter().zip(learned.iter()) {
        let fh = fr.metrics.hist(SimHist::CpuIdleGapMicros);
        let lh = lr.metrics.hist(SimHist::CpuIdleGapMicros);
        merged_f.merge(fh);
        merged_l.merge(lh);
        text.push_str(&format!(
            "{:<20} {:>11} {:>11} {:>12.1} {:>12.1} {:>13} {:>13}\n",
            pair_label(fr),
            fh.count(),
            lh.count(),
            fh.mean(),
            lh.mean(),
            longest_bucket_bound(fh),
            longest_bucket_bound(lh),
        ));
    }
    text.push_str(&format!(
        "all experiments: sleeps {} -> {}, mean idle gap {:.1} -> {:.1} us\n\n",
        merged_f.count(),
        merged_l.count(),
        merged_f.mean(),
        merged_l.mean(),
    ));
    text.push_str("idle-gap histogram, all experiments (bucket bounds in us):\n");
    text.push_str(&format!(
        "{:>16} {:>16} {:>12} {:>12}\n",
        "gap >=", "gap <", "fixed", "learned"
    ));
    for i in 0..telemetry::hist::BUCKETS {
        let (fx, ln) = (merged_f.buckets()[i], merged_l.buckets()[i]);
        if fx == 0 && ln == 0 {
            continue;
        }
        let (lo, hi) = LogHistogram::bucket_bounds(i);
        text.push_str(&format!("{lo:>16} {hi:>16} {fx:>12} {ln:>12}\n"));
    }

    let mut csv = String::from("bucket_lo_us,bucket_hi_us,fixed_sleeps,learned_sleeps\n");
    for i in 0..telemetry::hist::BUCKETS {
        let (fx, ln) = (merged_f.buckets()[i], merged_l.buckets()[i]);
        if fx == 0 && ln == 0 {
            continue;
        }
        let (lo, hi) = LogHistogram::bucket_bounds(i);
        csv.push_str(&format!("{lo},{hi},{fx},{ln}\n"));
    }
    Artifact {
        title: "Counterfactual 2: dynticks sleep residency, longest-idle-interval histogram (fixed vs learned)"
            .into(),
        text,
        csv: Some(csv),
    }
}

/// Mean wait per expiration in milliseconds.
fn mean_wait_ms(wait_ns: u64, expirations: u64) -> f64 {
    if expirations == 0 {
        0.0
    } else {
        wait_ns as f64 / expirations as f64 / 1e6
    }
}

/// Counterfactual 3: retransmission-class timer latency — how long
/// retransmit timers sat armed before firing, fixed vs learned.
fn retransmit_latency(fixed: &[ExperimentResult], learned: &[ExperimentResult]) -> Artifact {
    let mut text = format!(
        "{:<20} {:>10} {:>10} {:>15} {:>15} {:>11}\n",
        "experiment", "rto(f)", "rto(l)", "mean_ms(f)", "mean_ms(l)", "delta_ms"
    );
    let mut totals = (0u64, 0u64, 0u64, 0u64);
    let mut learned_arms = 0u64;
    let mut csv = String::from(
        "experiment,fixed_expirations,fixed_wait_ns,learned_expirations,learned_wait_ns\n",
    );
    for (fr, lr) in fixed.iter().zip(learned.iter()) {
        let fx_n = fr.metrics.counter(SimCounter::AdaptiveRtoExpirations);
        let fx_ns = fr.metrics.counter(SimCounter::AdaptiveRtoWaitNs);
        let ln_n = lr.metrics.counter(SimCounter::AdaptiveRtoExpirations);
        let ln_ns = lr.metrics.counter(SimCounter::AdaptiveRtoWaitNs);
        learned_arms += lr.metrics.counter(SimCounter::AdaptiveLearnedArms);
        totals.0 += fx_n;
        totals.1 += fx_ns;
        totals.2 += ln_n;
        totals.3 += ln_ns;
        let fm = mean_wait_ms(fx_ns, fx_n);
        let lm = mean_wait_ms(ln_ns, ln_n);
        text.push_str(&format!(
            "{:<20} {:>10} {:>10} {:>15.2} {:>15.2} {:>+11.2}\n",
            pair_label(fr),
            fx_n,
            ln_n,
            fm,
            lm,
            lm - fm,
        ));
        csv.push_str(&format!(
            "{},{fx_n},{fx_ns},{ln_n},{ln_ns}\n",
            pair_label(fr)
        ));
    }
    let (fm, lm) = (
        mean_wait_ms(totals.1, totals.0),
        mean_wait_ms(totals.3, totals.2),
    );
    text.push_str(&format!(
        "total: retransmit expirations {} -> {}, mean armed wait {:.2} -> {:.2} ms\n",
        totals.0, totals.2, fm, lm,
    ));
    text.push_str(&format!(
        "learned-policy timer arms taken from warm estimators: {learned_arms}\n"
    ));
    Artifact {
        title: "Counterfactual 3: retransmit latency, time armed before firing (fixed vs learned)"
            .into(),
        text,
        csv: Some(csv),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_experiment, Os};
    use crate::ExperimentSpec;
    use adaptive::AdaptivePolicy;
    use simtime::SimDuration;
    use workloads::Workload;

    fn pair(policy: AdaptivePolicy) -> ExperimentResult {
        let spec =
            ExperimentSpec::new(Os::Linux, Workload::Webserver, SimDuration::from_secs(4), 7)
                .with_adaptive(policy);
        run_experiment(spec)
    }

    #[test]
    fn counterfactual_artifacts_render_all_three_figures() {
        let fixed = vec![pair(AdaptivePolicy::Off)];
        let learned = vec![pair(AdaptivePolicy::Learned)];
        let artifacts = counterfactual_artifacts(&fixed, &learned);
        assert_eq!(artifacts.len(), 3);
        assert!(artifacts[0].title.contains("Counterfactual 1"));
        assert!(artifacts[0].text.contains("total: fixed="));
        assert!(artifacts[1].text.contains("idle-gap histogram"));
        assert!(artifacts[2].text.contains("retransmit expirations"));
        for a in &artifacts {
            assert!(a.csv.as_ref().is_some_and(|c| c.contains(',')));
        }
        // The webserver workload retransmits rarely on the clean LAN, but
        // the sleep-residency plane must always have samples.
        assert!(artifacts[1].text.contains("Linux Webserver"));
    }

    #[test]
    #[should_panic(expected = "counterfactual pairs")]
    fn mismatched_pairs_are_rejected() {
        let fixed = vec![pair(AdaptivePolicy::Off)];
        let mut other =
            ExperimentSpec::new(Os::Vista, Workload::Idle, SimDuration::from_secs(2), 7);
        other.adaptive = AdaptivePolicy::Learned;
        let learned = vec![run_experiment(other)];
        counterfactual_artifacts(&fixed, &learned);
    }
}
