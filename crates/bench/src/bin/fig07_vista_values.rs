//! Figure 7: common Vista timeout values.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: fig07_vista_values");
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let results = run_table_workloads(Os::Vista, bench::repro_duration(), 7);
    writeln!(out, "{}", figures::fig07(&results).printable());
    bench::print_stage_summary("fig07", &results, started);
}
