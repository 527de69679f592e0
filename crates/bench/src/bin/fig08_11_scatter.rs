//! Figures 8-11: timeout expiry/cancellation scatter plots.
use timerstudy::experiment::run_table_workloads;
use timerstudy::{figures, Os};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: fig08_11_scatter");
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let duration = bench::repro_duration();
    let linux = run_table_workloads(Os::Linux, duration, 7);
    let vista = run_table_workloads(Os::Vista, duration, 7);
    for (i, (l, v)) in linux.iter().zip(vista.iter()).enumerate() {
        writeln!(
            out,
            "{}",
            figures::fig_scatter(l, v, 8 + i as u32).printable()
        );
    }
    bench::print_stage_summary("fig08_11", linux.iter().chain(vista.iter()), started);
}
