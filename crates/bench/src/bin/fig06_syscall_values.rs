//! Figure 6: common Linux syscall timer values.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: fig06_syscall_values");
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let results = run_table_workloads(Os::Linux, bench::repro_duration(), 7);
    writeln!(out, "{}", figures::fig06(&results).printable());
    bench::print_stage_summary("fig06", &results, started);
}
