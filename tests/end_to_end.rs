//! Cross-crate integration tests: full experiments through the public API.

use simtime::SimDuration;
use timerstudy::{run_experiment, ExperimentSpec, Os, Workload};

fn spec(os: Os, workload: Workload, secs: u64) -> ExperimentSpec {
    ExperimentSpec::new(os, workload, SimDuration::from_secs(secs), 99)
}

#[test]
fn report_internal_consistency_linux() {
    let r = run_experiment(spec(Os::Linux, Workload::Skype, 90));
    let s = &r.report.summary;
    // Accesses decompose exactly into the event kinds.
    assert_eq!(s.accesses, s.set + s.expired + s.canceled + init_count(&r));
    assert_eq!(s.accesses, s.user_space + s.kernel);
    assert!(s.concurrency <= s.timers);
    assert!(s.timers > 10);
    // Records logged equals accesses (every operation logged once).
    assert_eq!(r.records, s.accesses);
}

fn init_count(r: &timerstudy::experiment::ExperimentResult) -> u64 {
    // init = accesses - (set + expired + canceled); sanity-checked > 0.
    let s = &r.report.summary;
    let init = s.accesses - s.set - s.expired - s.canceled;
    assert!(init > 0, "some timers must have been initialised");
    init
}

#[test]
fn report_internal_consistency_vista() {
    let r = run_experiment(spec(Os::Vista, Workload::Skype, 90));
    let s = &r.report.summary;
    assert_eq!(s.accesses, s.user_space + s.kernel);
    assert!(s.set >= s.expired, "cannot expire more than was set");
}

#[test]
fn scatter_respects_paper_conventions() {
    let r = run_experiment(spec(Os::Linux, Workload::Webserver, 120));
    assert!(!r.report.scatter.is_empty());
    for p in &r.report.scatter {
        assert!(p.percent <= 250.0, "cut off above 250%");
        assert!(p.seconds > 0.0);
        assert!(p.count > 0);
    }
    // Late delivery must produce some points above 100 %.
    assert!(
        r.report.scatter.iter().any(|p| p.percent > 100.0),
        "jiffy-quantised delivery must push points past 100%"
    );
    // And cancellations produce points below 100 %.
    assert!(r.report.scatter.iter().any(|p| p.percent < 100.0));
}

#[test]
fn value_rows_respect_two_percent_rule() {
    let r = run_experiment(spec(Os::Linux, Workload::Firefox, 60));
    for row in &r.report.values_all {
        assert!(row.percent >= 2.0);
    }
    assert!(r.report.values_all_coverage <= 100.0 + 1e-9);
}

#[test]
fn fig4_dots_exhibit_countdown() {
    let r = run_experiment(spec(Os::Linux, Workload::Idle, 300));
    let dots = &r.report.fig4_dots;
    assert!(dots.len() > 50, "X must have set many select timeouts");
    // Within the trace, consecutive dot values decline (countdown) except
    // at chain restarts; verify at least 60 % of steps decline.
    let declining = dots.windows(2).filter(|w| w[1].value < w[0].value).count();
    assert!(
        declining as f64 >= 0.6 * (dots.len() - 1) as f64,
        "countdown sawtooth expected: {declining}/{}",
        dots.len() - 1
    );
}

#[test]
fn full_experiment_is_deterministic() {
    let a = run_experiment(spec(Os::Linux, Workload::Skype, 60));
    let b = run_experiment(spec(Os::Linux, Workload::Skype, 60));
    let ja = serde_json::to_string(&a.report).unwrap();
    let jb = serde_json::to_string(&b.report).unwrap();
    assert_eq!(ja, jb, "same seed must give byte-identical reports");
}

#[test]
fn vista_experiment_is_deterministic() {
    let a = run_experiment(spec(Os::Vista, Workload::Firefox, 45));
    let b = run_experiment(spec(Os::Vista, Workload::Firefox, 45));
    assert_eq!(
        serde_json::to_string(&a.report).unwrap(),
        serde_json::to_string(&b.report).unwrap()
    );
}

#[test]
fn reports_serialize_stably_and_completely() {
    // The vendored serde_json stand-in renders debug formatting and does
    // not support deserialisation (vendor/README.md), so instead of a
    // from_str round-trip this pins what equality comparisons elsewhere
    // rely on: serialisation is total, deterministic, and reflects the
    // report's observable fields.
    let r = run_experiment(spec(Os::Vista, Workload::Idle, 45));
    let json = serde_json::to_string(&r.report).unwrap();
    assert_eq!(json, serde_json::to_string(&r.report).unwrap());
    assert!(json.contains(&r.report.summary.accesses.to_string()));
    assert!(json.contains("scatter"));
    let again = run_experiment(spec(Os::Vista, Workload::Idle, 45));
    assert_eq!(json, serde_json::to_string(&again.report).unwrap());
}

#[test]
fn logging_overhead_is_negligible() {
    // The paper: < 0.1 % CPU overhead from instrumentation.
    let r = run_experiment(spec(Os::Linux, Workload::Firefox, 60));
    let overhead = r.logging_overhead.as_secs_f64();
    let run = 60.0;
    assert!(
        overhead / run < 0.001,
        "modeled instrumentation overhead {:.4}% must stay under 0.1%",
        100.0 * overhead / run
    );
}
