//! Table 3: origins and classification of frequent Linux timeout values.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: table3_origins");
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let results = run_table_workloads(Os::Linux, bench::repro_duration(), 7);
    writeln!(out, "{}", figures::table3(&results).printable());
    bench::print_stage_summary("table3", &results, started);
}
