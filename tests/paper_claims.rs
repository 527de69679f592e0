//! The paper's qualitative claims, asserted against the reproduction.
//!
//! Absolute counts cannot match (our substrate is a simulator, not the
//! authors' testbed); every test here pins a *shape*: an ordering, a
//! dominance relation, a crossover, or the presence of a named value.

use simtime::SimDuration;
use timerstudy::experiment::{analyzer_config, run_experiment_with, run_table_workloads};
use timerstudy::{run_experiment, ExperimentSpec, Os, Workload};

const RUN: SimDuration = SimDuration::from_secs(180);

fn has_value(rows: &[analysis::values::ValueRow], seconds: f64) -> bool {
    rows.iter().any(|r| (r.seconds - seconds).abs() < 5e-4)
}

#[test]
fn vista_expires_linux_cancels() {
    // §4: "on Vista timers more often expire, whereas on Linux more
    // timers are canceled".
    let linux = run_table_workloads(Os::Linux, RUN, 3);
    let vista = run_table_workloads(Os::Vista, RUN, 3);
    let (mut l_cancel_heavy, mut v_expire_heavy) = (0, 0);
    for r in &linux {
        if r.report.summary.canceled > r.report.summary.expired {
            l_cancel_heavy += 1;
        }
    }
    for r in &vista {
        if r.report.summary.expired > r.report.summary.canceled {
            v_expire_heavy += 1;
        }
    }
    assert!(
        l_cancel_heavy >= 3,
        "Linux: {l_cancel_heavy}/4 cancel-heavy"
    );
    assert_eq!(v_expire_heavy, 4, "Vista: all workloads expire-heavy");
}

#[test]
fn workload_intensity_ordering_matches_table1() {
    // Table 1: Firefox >> Skype > Idle in accesses; GUI applications are
    // responsible for very large numbers of timer calls.
    let linux = run_table_workloads(Os::Linux, RUN, 3);
    let by = |w: Workload| {
        linux
            .iter()
            .find(|r| r.spec.workload == w)
            .unwrap()
            .report
            .summary
            .accesses
    };
    assert!(by(Workload::Firefox) > 5 * by(Workload::Skype));
    assert!(by(Workload::Skype) > by(Workload::Idle));
}

#[test]
fn linux_webserver_kernel_dominates_but_vista_webserver_does_not_grow() {
    // Table 1 vs Table 2 webserver columns + the §1 TCP-wheel story.
    let lweb = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Webserver, RUN, 3));
    assert!(lweb.report.summary.kernel > lweb.report.summary.user_space);
    let vidle = run_experiment(ExperimentSpec::new(Os::Vista, Workload::Idle, RUN, 3));
    let vweb = run_experiment(ExperimentSpec::new(Os::Vista, Workload::Webserver, RUN, 3));
    let ratio = vweb.report.summary.kernel as f64 / vidle.report.summary.kernel as f64;
    assert!(
        ratio < 2.0,
        "Vista webserver kernel activity must stay near idle (ratio {ratio:.2})"
    );
}

#[test]
fn linux_values_are_jiffy_quantised_vista_values_are_not() {
    // §4.3: "Linux rounds timeouts to the nearest jiffy. Therefore, we do
    // not see any timers of less than one jiffy (4ms) in the Linux
    // traces... not seen in the Vista traces."
    let linux = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Firefox, RUN, 3));
    for p in &linux.report.scatter {
        assert!(
            p.seconds >= 0.0039,
            "no sub-jiffy armed timers on Linux, got {}",
            p.seconds
        );
    }
    let vista = run_experiment(ExperimentSpec::new(Os::Vista, Workload::Firefox, RUN, 3));
    assert!(
        vista.report.scatter.iter().any(|p| p.seconds < 0.002),
        "Vista carries sub-millisecond requested values"
    );
}

#[test]
fn skype_sets_both_4999_and_half_second() {
    // §4.2: Skype "is dominated by constant timeouts of 0, 0.4999 and
    // 0.5" — the histogram must keep 0.4999 and 0.5 distinct.
    let r = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Skype, RUN, 3));
    let rows = &r.report.values_user;
    assert!(has_value(rows, 0.0), "zero-timeout polls missing");
    assert!(has_value(rows, 0.4999), "0.4999 missing: {rows:?}");
    assert!(has_value(rows, 0.5), "0.5 missing");
}

#[test]
fn table3_constants_appear_in_webserver_values() {
    // Table 3's kernel constants emerge from the mechanisms: the 40 ms
    // delayed ACK, the 3 s SYN retransmit, 15 s Apache poll, 30 s IDE,
    // 7200 s keepalive.
    let r = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Webserver, RUN, 3));
    let rows = &r.report.values_filtered;
    for v in [0.04, 3.0, 15.0, 30.0, 7200.0] {
        assert!(has_value(rows, v), "expected value {v} in {rows:?}");
    }
}

#[test]
fn tcp_rto_floor_appears_in_skype_trace() {
    // Table 3: "0.204 TCP retransmission timeout ... determined by online
    // adaptation" — with steady sub-floor RTTs the adaptive RTO sits at
    // its 204 ms floor.
    let r = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Skype, RUN, 3));
    assert!(
        has_value(&r.report.values_filtered, 0.204),
        "0.204 missing from {:?}",
        r.report.values_filtered
    );
}

#[test]
fn arp_five_second_vertical_array() {
    // §4.3: the constant 5 s ARP timer cancelled at random intervals
    // shows as a vertical array at 5 s spanning a wide percentage range.
    let r = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Webserver, RUN, 3));
    let at5: Vec<f64> = r
        .report
        .scatter
        .iter()
        .filter(|p| (p.seconds - 5.0).abs() / 5.0 < 0.06)
        .map(|p| p.percent)
        .collect();
    assert!(at5.len() > 3, "need a populated 5 s column: {at5:?}");
    let min = at5.iter().copied().fold(f64::INFINITY, f64::min);
    let max = at5.iter().copied().fold(0.0f64, f64::max);
    assert!(
        max - min > 50.0,
        "5 s cancellations must span a wide range: {min}..{max}"
    );
}

#[test]
fn outlook_bursts_reach_thousands_per_second() {
    // §2.2.1 / Figure 1: ~70 timers/s idle, bursts to ~7000/s.
    let r = run_experiment(ExperimentSpec::new(
        Os::Vista,
        Workload::Outlook,
        timerstudy::FIG1_DURATION,
        3,
    ));
    let outlook = r.report.rate_series.get("Outlook").expect("series");
    let peak = outlook.iter().copied().max().unwrap_or(0);
    assert!(peak > 2_000, "burst peak = {peak}");
    let quiet = outlook.iter().filter(|&&c| c < 200).count();
    assert!(quiet > outlook.len() / 2, "mostly idle between bursts");
    // And the kernel sets on the order of a thousand timers per second.
    let kernel = r.report.rate_series.get("Kernel").expect("series");
    let mean = kernel.iter().map(|&c| c as f64).sum::<f64>() / kernel.len() as f64;
    assert!((300.0..3_000.0).contains(&mean), "kernel mean = {mean}");
}

#[test]
fn firefox_cancellations_spread_uniformly() {
    // §4.3: Firefox cancellations are "equally distributed between 0% and
    // 100%".
    let r = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Firefox, RUN, 3));
    let cancels: Vec<(f64, u64)> = r
        .report
        .scatter
        .iter()
        .filter(|p| !p.mostly_expired && p.percent < 100.0)
        .map(|p| (p.percent, p.count))
        .collect();
    let total: u64 = cancels.iter().map(|&(_, c)| c).sum();
    let low: u64 = cancels
        .iter()
        .filter(|&&(p, _)| p < 50.0)
        .map(|&(_, c)| c)
        .sum();
    let frac = low as f64 / total.max(1) as f64;
    assert!(
        (0.3..0.7).contains(&frac),
        "cancellations should spread evenly, below-50% fraction = {frac}"
    );
}

#[test]
fn idle_pattern_mix_is_periodic_heavy_webserver_uses_watchdogs() {
    // Figure 2: "Apache uses watchdogs to timeout connections, whereas
    // the Idle workload employs almost none, but is instead dominated by
    // periodic background tasks."
    let linux = run_table_workloads(Os::Linux, RUN, 3);
    let mix_of = |w: Workload| {
        &linux
            .iter()
            .find(|r| r.spec.workload == w)
            .unwrap()
            .report
            .pattern_mix
    };
    use analysis::PatternClass::{Periodic, Watchdog};
    let idle = mix_of(Workload::Idle);
    let web = mix_of(Workload::Webserver);
    assert!(
        idle.percent(Periodic) > web.percent(Periodic),
        "idle periodic {:.1}% vs web {:.1}%",
        idle.percent(Periodic),
        web.percent(Periodic)
    );
    assert!(
        web.percent(Watchdog) > idle.percent(Watchdog),
        "web watchdog {:.1}% vs idle {:.1}%",
        web.percent(Watchdog),
        idle.percent(Watchdog)
    );
}

#[test]
fn fig2_mix_does_not_hinge_on_a_sub_jiffy_tolerance() {
    // Figure 2 rests on the classifier's 2 ms jitter tolerance. Linux
    // timer values are jiffy-quantised (4 ms), so no tolerance below a
    // jiffy may move any Linux mix; two jiffies (8 ms) does move Idle's
    // on some seeds.
    let run = SimDuration::from_secs(60);
    let mix = |workload, tolerance_us| {
        let mut cfg = analyzer_config(Os::Linux, workload);
        cfg.tolerance = SimDuration::from_micros(tolerance_us);
        run_experiment_with(ExperimentSpec::new(Os::Linux, workload, run, 3), cfg)
            .report
            .pattern_mix
    };
    for workload in Workload::TABLE_WORKLOADS {
        let paper = mix(workload, 2_000);
        for tolerance_us in [100, 500] {
            let swept = mix(workload, tolerance_us);
            assert_eq!(
                (&swept.counts, swept.total),
                (&paper.counts, paper.total),
                "{workload:?}: the mix at {tolerance_us} us differs from the 2 ms one"
            );
        }
    }
}

#[test]
fn vista_traces_show_the_deferred_pattern() {
    // 4.1.1: "Vista traces ... show a further distinctive pattern"
    // (deferred: repeatedly pushed out, then expires — registry lazy
    // close). The Linux taxonomy does not contain it.
    let vista = run_experiment(ExperimentSpec::new(Os::Vista, Workload::Idle, RUN, 3));
    assert!(
        vista
            .report
            .pattern_mix
            .percent(analysis::PatternClass::Deferred)
            > 0.0,
        "mix = {:?}",
        vista.report.pattern_mix
    );
    let linux = run_experiment(ExperimentSpec::new(Os::Linux, Workload::Idle, RUN, 3));
    assert_eq!(
        linux
            .report
            .pattern_mix
            .percent(analysis::PatternClass::Deferred),
        0.0
    );
}

#[test]
fn firefox_and_skype_have_high_unclassified_share() {
    // §4.1.1: "The high number of unclassified timers in the Skype and
    // Firefox workloads correspond to a large volume of very short
    // timers."
    let linux = run_table_workloads(Os::Linux, RUN, 3);
    for w in [Workload::Firefox, Workload::Skype] {
        let mix = &linux
            .iter()
            .find(|r| r.spec.workload == w)
            .unwrap()
            .report
            .pattern_mix;
        assert!(
            mix.percent(analysis::PatternClass::Other) > 30.0,
            "{w:?} other = {:.1}%",
            mix.percent(analysis::PatternClass::Other)
        );
    }
}
