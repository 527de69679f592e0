//! Figure 1: timer usage frequency in Vista (Outlook/Browser/System/Kernel).
use timerstudy::{cache, figures, ExperimentSpec, Os, Workload, FIG1_DURATION};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: fig01_vista_rates");
    // Figure 1 is always the 90 s excerpt; this only rejects a malformed
    // `REPRO_*` variable, as every reproduction binary does.
    bench::repro_duration();
    let mut out = bench::Stdout::default();
    let started = std::time::Instant::now();
    let result = cache::global().get_or_run(ExperimentSpec::new(
        Os::Vista,
        Workload::Outlook,
        FIG1_DURATION,
        7,
    ));
    writeln!(out, "{}", figures::fig01(&result).printable());
    bench::print_stage_summary("fig01", [result.as_ref()], started);
}
