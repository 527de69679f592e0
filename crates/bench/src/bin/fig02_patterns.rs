//! Figure 2: common Linux timer usage patterns, with an optional
//! `--sweep` of the classifier's jitter tolerance (a DESIGN.md ablation).
use analysis::PatternClass;
use timerstudy::experiment::{analyzer_config, run_experiment_with, run_table_workloads};
use timerstudy::{figures, ExperimentSpec, Os, Workload};

fn main() {
    bench::check_args(
        std::env::args(),
        &[("--sweep", bench::Takes::Nothing)],
        "usage: fig02_patterns [--sweep]",
    );
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let duration = bench::repro_duration();
    let results = run_table_workloads(Os::Linux, duration, 7);
    writeln!(out, "{}", figures::fig02(&results).printable());
    bench::print_stage_summary("fig02", &results, started);
    if std::env::args().any(|a| a == "--sweep") {
        writeln!(out, "=== jitter-tolerance sensitivity (Idle workload) ===");
        for tol_us in [100u64, 500, 2_000, 8_000] {
            let mut cfg = analyzer_config(Os::Linux, Workload::Idle);
            cfg.tolerance = simtime::SimDuration::from_micros(tol_us);
            let result = run_experiment_with(
                ExperimentSpec::new(Os::Linux, Workload::Idle, duration, 7),
                cfg,
            );
            writeln!(
                out,
                "tolerance {:>5} us: periodic {:>5.1}%  watchdog {:>5.1}%  timeout {:>5.1}%  other {:>5.1}%",
                tol_us,
                result.report.pattern_mix.percent(PatternClass::Periodic),
                result.report.pattern_mix.percent(PatternClass::Watchdog),
                result.report.pattern_mix.percent(PatternClass::Timeout),
                result.report.pattern_mix.percent(PatternClass::Other),
            );
        }
        writeln!(
            out,
            "(the paper's experimentally determined tolerance is 2 ms)"
        );
    }
}
