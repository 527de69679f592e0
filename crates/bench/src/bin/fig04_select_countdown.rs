//! Figure 4: dot plot of X timer usage via select.
use timerstudy::{cache, figures, ExperimentSpec, Os, Workload};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: fig04_select_countdown");
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let result = cache::global().get_or_run(ExperimentSpec::new(
        Os::Linux,
        Workload::Idle,
        bench::repro_duration(),
        7,
    ));
    writeln!(out, "{}", figures::fig04(&result).printable());
    let (detected, flagged) = result.report.countdown_validation;
    writeln!(
        out,
        "countdown detector: {detected} sets detected vs {flagged} ground-truth flagged"
    );
    bench::print_stage_summary("fig04", [result.as_ref()], started);
}
