//! Figure 5: common Linux timeout values, X/icewm filtered.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: fig05_values_filtered");
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let results = run_table_workloads(Os::Linux, bench::repro_duration(), 7);
    writeln!(out, "{}", figures::fig05(&results).printable());
    bench::print_stage_summary("fig05", &results, started);
}
