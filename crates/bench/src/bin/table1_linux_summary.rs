//! Table 1: Linux trace summary for the four workloads.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: table1_linux_summary");
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let results = run_table_workloads(Os::Linux, bench::repro_duration(), 7);
    writeln!(out, "{}", figures::table1(&results).printable());
    bench::print_stage_summary("table1", &results, started);
}
