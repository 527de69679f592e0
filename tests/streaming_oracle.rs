//! Differential oracle: the streaming analysis pipeline (bounded chunk
//! buffer, k-way merged readout) must emit byte-identical reports and
//! artifacts to the collect-everything path it replaced — across serial,
//! parallel and cached execution — while holding peak resident events to
//! a constant independent of trace length.

use analysis::TraceAnalyzer;
use des::CpuMeter;
use simtime::SimDuration;
use timerstudy::cache::ExperimentCache;
use timerstudy::experiment::{analyzer_config, run_experiments, table_specs};
use timerstudy::figures::{assemble, paper_specs};
use timerstudy::parallel::run_experiments_parallel_with;
use timerstudy::{ExperimentResult, ExperimentSpec, Os, ANALYSIS_CHUNK_EVENTS};
use trace::{CollectSink, Event, TraceLog};

const SECS: u64 = 12;
const SEED: u64 = 7;

fn report_json(r: &ExperimentResult) -> String {
    serde_json::to_string(&r.report).unwrap()
}

fn peak_resident(r: &ExperimentResult) -> u64 {
    r.metrics
        .gauge(telemetry::SimGauge::AnalysisResidentEventsHigh)
}

/// The collect-everything oracle, built from public API only: the whole
/// trace is collected into one resident `Vec<Event>`, then folded by a
/// single `push_chunk`. Returns the result and how many events it held.
fn collect_then_analyze(spec: ExperimentSpec) -> (ExperimentResult, usize) {
    let sink = Box::new(CollectSink::default());
    let (net, backend, policy) = (spec.faults.net, spec.backend, spec.adaptive);
    match spec.os {
        Os::Linux => {
            let mut kernel = workloads::run_linux_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                backend,
                policy,
            );
            let events = kernel
                .log_mut()
                .take_collected_events()
                .expect("a CollectSink");
            analyze(spec, &events, kernel.log(), kernel.cpu())
        }
        Os::Vista => {
            let mut kernel = workloads::run_vista_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                backend,
                policy,
            );
            let events = kernel
                .log_mut()
                .take_collected_events()
                .expect("a CollectSink");
            analyze(spec, &events, kernel.log(), kernel.cpu())
        }
    }
}

fn analyze(
    spec: ExperimentSpec,
    events: &[Event],
    log: &TraceLog,
    cpu: &CpuMeter,
) -> (ExperimentResult, usize) {
    let mut analyzer = TraceAnalyzer::new(analyzer_config(spec.os, spec.workload));
    analyzer.push_chunk(events);
    let result = ExperimentResult {
        spec,
        report: analyzer.finish(log.strings()),
        wakeups: cpu.wakeups(),
        busy: cpu.busy_time(),
        records: log.records_logged(),
        logging_overhead: log.modeled_overhead(),
        metrics: telemetry::SimSnapshot::empty(),
    };
    (result, events.len())
}

fn collect_all(specs: &[ExperimentSpec]) -> Vec<(ExperimentResult, usize)> {
    specs.iter().copied().map(collect_then_analyze).collect()
}

#[test]
fn streaming_and_collected_agree_byte_for_byte_across_all_paths() {
    let specs = paper_specs(SimDuration::from_secs(SECS), SEED);

    let streaming = run_experiments(&specs);
    let collected: Vec<ExperimentResult> =
        collect_all(&specs).into_iter().map(|(r, _)| r).collect();
    let parallel = run_experiments_parallel_with(&specs, 4);
    let cached = ExperimentCache::new().run_all(&specs);

    for (((s, c), p), k) in streaming.iter().zip(&collected).zip(&parallel).zip(&cached) {
        assert_eq!(s.spec, c.spec);
        let want = report_json(s);
        assert_eq!(want, report_json(c), "collected diverged for {:?}", s.spec);
        assert_eq!(want, report_json(p), "parallel diverged for {:?}", s.spec);
        assert_eq!(want, report_json(k), "cached diverged for {:?}", s.spec);
        assert_eq!(s.records, c.records);
        assert_eq!(s.wakeups, c.wakeups);
        assert_eq!(s.busy, c.busy);
    }

    // The rendered figures/tables — what `repro_all` actually prints —
    // are byte-identical too.
    let a_streaming = assemble(&streaming);
    let a_collected = assemble(&collected);
    let a_parallel = assemble(&parallel);
    let a_cached = assemble(&cached);
    for (((s, c), p), k) in a_streaming
        .iter()
        .zip(&a_collected)
        .zip(&a_parallel)
        .zip(&a_cached)
    {
        assert_eq!(s.printable(), c.printable(), "collected artifact differs");
        assert_eq!(s.printable(), p.printable(), "parallel artifact differs");
        assert_eq!(s.printable(), k.printable(), "cached artifact differs");
        assert_eq!(s.csv, c.csv);
        assert_eq!(s.csv, p.csv);
        assert_eq!(s.csv, k.csv);
    }
}

#[test]
fn streaming_memory_bound_is_constant_in_trace_length() {
    let short = SimDuration::from_secs(10);
    let long = SimDuration::from_secs(20);
    let chunk = ANALYSIS_CHUNK_EVENTS as u64;

    let streaming_short = run_experiments(&table_specs(Os::Linux, short, SEED));
    let streaming_long = run_experiments(&table_specs(Os::Linux, long, SEED));
    let collected_short = collect_all(&table_specs(Os::Linux, short, SEED));

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
