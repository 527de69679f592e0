//! The mode matrix's table: one row per execution mode of the
//! reproduction, each checked against the serial reference run (the
//! harness and its checks are in `tests/matrix/mod.rs`).
//!
//! `tests/{fault_injection,fault_plane_off,parallel_determinism,
//! telemetry_determinism}.rs` declare a few more rows, each under the
//! name of the test it replaced and with that test's checks.

mod matrix;

use simtime::SimDuration;
use timerstudy::experiment::{run_experiments, table_specs};
use timerstudy::{ExperimentResult, FaultSpec, Os, ANALYSIS_CHUNK_EVENTS};
use wheel::Backend;

use matrix::Check::*;
use matrix::{
    cache_twice_then_warm, collect_all, collect_everything, faults, learned_baseline, mode_matrix,
    pool, serial, FAULTED, FULL, PAPER_SEED,
};

mode_matrix! {
    // row: base, spec transform, runner, checks;
    pool_2_threads: Paper, |s| s, pool::<2>, FULL;
    pool_4_threads: Paper, |s| s, pool::<4>, FULL;
    pool_9_threads: Paper, |s| s, pool::<9>, FULL;
    fresh_cache: Paper, |s| s, cache_twice_then_warm, FULL;
    collect_everything_oracle: Paper, |s| s, collect_everything, &[Report, Counters, Artifacts];
    explicit_clean_fault_plane:
        Paper, |s| s.with_faults(FaultSpec::none()), serial, &[Report, Counters, Sim, Artifacts, Clean];
    fixed_policy: Paper, |s| s, learned_baseline, FULL;
    forced_hierarchical_wheel:
        Paper, |s| s.with_backend(Backend::Hierarchical), serial, &[Artifacts, Wheel];
    forced_hashed_wheel: Paper, |s| s.with_backend(Backend::Hashed), serial, &[Artifacts, Wheel];
    learned_on_hashed_wheel: Learned, |s| s.with_backend(Backend::Hashed), serial, &[Artifacts];
    drops_seed_1: Faults, |s| s.with_faults(faults("drops", 1)), pool::<4>, FAULTED;
    drops_seed_2: Faults, |s| s.with_faults(faults("drops", 2)), pool::<4>, FAULTED;
    drops_seed_3: Faults, |s| s.with_faults(faults("drops", 3)), pool::<4>, FAULTED;
    net_burst_seed_1: Faults, |s| s.with_faults(faults("net-burst", 1)), pool::<4>, FAULTED;
    net_burst_seed_2: Faults, |s| s.with_faults(faults("net-burst", 2)), pool::<4>, FAULTED;
    net_burst_seed_3: Faults, |s| s.with_faults(faults("net-burst", 3)), pool::<4>, FAULTED;
    clock_jitter_seed_1: Faults, |s| s.with_faults(faults("clock-jitter", 1)), pool::<4>, FAULTED;
    clock_jitter_seed_2: Faults, |s| s.with_faults(faults("clock-jitter", 2)), pool::<4>, FAULTED;
    clock_jitter_seed_3: Faults, |s| s.with_faults(faults("clock-jitter", 3)), pool::<4>, FAULTED;
}

fn peak_resident(r: &ExperimentResult) -> u64 {
    r.metrics
        .gauge(telemetry::SimGauge::AnalysisResidentEventsHigh)
}

#[test]
fn streaming_memory_bound_is_constant_in_trace_length() {
    let short = SimDuration::from_secs(10);
    let long = SimDuration::from_secs(20);
    let chunk = ANALYSIS_CHUNK_EVENTS as u64;

    let streaming_short = run_experiments(&table_specs(Os::Linux, short, PAPER_SEED));
    let streaming_long = run_experiments(&table_specs(Os::Linux, long, PAPER_SEED));
    let collected_short = collect_all(&table_specs(Os::Linux, short, PAPER_SEED));

    for (s, (c, held)) in streaming_short.iter().zip(&collected_short) {
        // Streaming never buffers more than one chunk; the oracle holds
        // the entire trace resident at once.
        assert!(
            peak_resident(s) <= chunk,
            "streaming resident {} exceeds chunk {chunk}",
            peak_resident(s)
        );
        assert_eq!(
            *held as u64, c.records,
            "collected path must hold the whole trace"
        );
        if s.records > chunk {
            assert_eq!(peak_resident(s), chunk, "full chunks flush at the bound");
            assert!(*held as u64 > peak_resident(s));
        }
    }

    // Doubling the trace leaves the streaming bound unchanged even as
    // the trace itself grows.
    let mut saw_growth = false;
    for (s, l) in streaming_short.iter().zip(&streaming_long) {
        assert!(peak_resident(l) <= chunk);
        if l.records > s.records && s.records > chunk {
            assert_eq!(peak_resident(s), peak_resident(l));
            saw_growth = true;
        }
    }
    assert!(
        saw_growth,
        "expected at least one workload to exceed one chunk and grow with duration"
    );
}
