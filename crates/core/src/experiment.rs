//! Running one workload × OS experiment end to end.

use analysis::{AnalyzerConfig, Report, TraceAnalyzer};
use des::CpuMeter;
use simtime::SimDuration;
use trace::{Event, FaultSink, TraceLog, TraceSink};
use workloads::{pids, Workload};

use crate::faults::FaultSpec;

/// Which simulated operating system to trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Os {
    /// The Linux 2.6.23.9 model.
    Linux,
    /// The Windows Vista model.
    Vista,
}

impl Os {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Os::Linux => "Linux",
            Os::Vista => "Vista",
        }
    }
}

/// One experiment's parameters.
///
/// `Eq + Hash` so a spec can key an [`crate::cache::ExperimentCache`]
/// entry: two equal specs are guaranteed (by determinism) to produce
/// identical results, so each distinct spec needs to run only once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExperimentSpec {
    /// Operating system model.
    pub os: Os,
    /// Workload.
    pub workload: Workload,
    /// Trace length (the paper uses 30 minutes; 90 s for Figure 1).
    pub duration: SimDuration,
    /// Random seed (experiments are exactly reproducible).
    pub seed: u64,
    /// Fault-injection configuration ([`FaultSpec::none`] for the clean
    /// runs the paper reports). Part of the cache key, so faulted and
    /// clean runs of the same workload never alias in the memo table.
    pub faults: FaultSpec,
    /// Timer-queue backend for every simulated subsystem
    /// ([`wheel::Backend::Native`] keeps each kernel's historical
    /// structure). Part of the cache key: equivalence makes the *report*
    /// identical across wheels, but the sim-plane metrics snapshot
    /// (cascades vs revisits) is wheel-specific.
    pub backend: wheel::Backend,
    /// Workload-timeout policy: `Off` keeps every historical constant;
    /// `Learned` drives the same timers from the learned distributions of
    /// §5.1. Part of the cache key: a learned run's report is a different
    /// experiment outcome.
    pub adaptive: adaptive::AdaptivePolicy,
}

impl ExperimentSpec {
    /// A clean (fault-free) spec — the shape every pre-fault-plane spec
    /// had.
    pub const fn new(os: Os, workload: Workload, duration: SimDuration, seed: u64) -> Self {
        ExperimentSpec {
            os,
            workload,
            duration,
            seed,
            faults: FaultSpec::none(),
            backend: wheel::Backend::Native,
            adaptive: adaptive::AdaptivePolicy::Off,
        }
    }

    /// The same experiment with fault injection enabled.
    pub const fn with_faults(mut self, faults: FaultSpec) -> Self {
        self.faults = faults;
        self
    }

    /// The same experiment with one wheel forced onto every subsystem.
    pub const fn with_backend(mut self, backend: wheel::Backend) -> Self {
        self.backend = backend;
        self
    }

    /// The same experiment under the given workload-timeout policy.
    pub const fn with_adaptive(mut self, policy: adaptive::AdaptivePolicy) -> Self {
        self.adaptive = policy;
        self
    }

    /// A static estimate of this experiment's cost: the trace records
    /// its (OS, workload) pair logs per simulated second, measured at
    /// seed 7 (over 30 minutes; Outlook over 90 s, `ApacheScale` over
    /// 45 s), times the duration in milliseconds. The pool starts the costliest experiments first; a
    /// wrong estimate can cost wall time but never change a result.
    pub(crate) fn cost_hint(&self) -> u64 {
        let records_per_second: u64 = match (self.os, self.workload) {
            (Os::Linux, Workload::Idle | Workload::Outlook) => 50,
            (Os::Linux, Workload::Skype) => 225,
            (Os::Linux, Workload::Firefox) => 1_558,
            (Os::Linux, Workload::Webserver) => 307,
            (Os::Linux, Workload::ApacheScale) => 30_183,
            (Os::Vista, Workload::Idle) => 139,
            (Os::Vista, Workload::Skype) => 1_255,
            (Os::Vista, Workload::Firefox) => 3_197,
            (Os::Vista, Workload::Webserver | Workload::ApacheScale) => 185,
            (Os::Vista, Workload::Outlook) => 2_013,
        };
        records_per_second.saturating_mul(self.duration.as_millis())
    }

    /// The spec for one trial of a multi-trial run: same parameters, with
    /// the seed derived via [`workloads::trial_seed`] (trial 0 keeps the
    /// base seed). Stable regardless of the order trials are launched in.
    pub fn for_trial(self, trial: u32) -> ExperimentSpec {
        ExperimentSpec {
            seed: workloads::trial_seed(self.seed, trial),
            ..self
        }
    }
}

/// The outcome of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// The parameters that produced it.
    pub spec: ExperimentSpec,
    /// Every table/figure's data.
    pub report: Report,
    /// CPU wakeups during the run (power analysis).
    pub wakeups: u64,
    /// Virtual CPU busy time.
    pub busy: SimDuration,
    /// Trace records logged.
    pub records: u64,
    /// Modeled instrumentation overhead (records × 89 ns, §3.2).
    pub logging_overhead: SimDuration,
    /// The experiment's sim-plane telemetry snapshot — a pure function of
    /// the spec, captured while the run executed. Cached results carry
    /// the snapshot of the original run, which is what keeps run-report
    /// sim metrics bit-identical across serial/parallel/cached modes.
    pub metrics: telemetry::SimSnapshot,
}

/// Events buffered per analysis chunk on the streaming path. The peak
/// buffer fill — at most this constant, regardless of trace length — is
/// what the `analysis_resident_events_high_watermark` gauge records.
pub const ANALYSIS_CHUNK_EVENTS: usize = 4096;

/// A sink that owns a [`TraceAnalyzer`], feeds it bounded chunks, and can
/// hand it back.
struct ChunkedAnalyzerSink {
    analyzer: Option<TraceAnalyzer>,
    buf: Vec<Event>,
}

impl ChunkedAnalyzerSink {
    fn new(analyzer: TraceAnalyzer) -> Self {
        ChunkedAnalyzerSink {
            analyzer: Some(analyzer),
            buf: Vec::with_capacity(ANALYSIS_CHUNK_EVENTS),
        }
    }

    /// Gauges the buffer fill, delivers it as one chunk, and empties it —
    /// `clear` keeps the capacity, so one chunk buffer is recycled for
    /// the whole run instead of reallocated per flush. Flush points are a
    /// pure function of the event stream, so the gauge and the reuse
    /// counter stay bit-identical across serial/parallel/cached
    /// execution. The fold runs under the `stage.fold` span; every flush
    /// but the tail one nests inside `stage.workload`, so the difference
    /// of the two is the time spent in the kernel model and the workload.
    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        telemetry::sim::gauge_max(
            telemetry::SimGauge::AnalysisResidentEventsHigh,
            self.buf.len() as u64,
        );
        telemetry::sim::add(telemetry::SimCounter::AnalysisChunkReuse, 1);
        if let Some(a) = self.analyzer.as_mut() {
            let _fold_span = telemetry::span("stage.fold");
            a.push_chunk(&self.buf);
        }
        self.buf.clear();
    }

    /// Flushes the tail and surrenders the analyzer.
    fn take(&mut self) -> Option<TraceAnalyzer> {
        self.flush();
        self.analyzer.take()
    }
}

impl TraceSink for ChunkedAnalyzerSink {
    fn record(&mut self, event: &Event) {
        self.buf.push(*event);
        if self.buf.len() >= ANALYSIS_CHUNK_EVENTS {
            self.flush();
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// The analyzer configuration matching the paper's treatment of each OS.
pub fn analyzer_config(os: Os, workload: Workload) -> AnalyzerConfig {
    let mut cfg = match os {
        Os::Linux => AnalyzerConfig::linux(),
        Os::Vista => AnalyzerConfig::vista(),
    };
    if os == Os::Linux {
        // The paper filters the X/icewm select loops from Figures 5/6 and
        // the scatter plots, and plots Xorg's sets in Figure 4.
        cfg.exclude_pids = pids::linux_filtered();
        cfg.dot_pids = vec![pids::XORG];
    }
    if workload == Workload::Outlook {
        // Figure 1's grouping.
        cfg.rate_groups.insert(pids::OUTLOOK, "Outlook".to_owned());
        cfg.rate_groups.insert(pids::BROWSER, "Browser".to_owned());
    }
    cfg
}

/// Runs one experiment: workload → kernel → streaming analysis → report.
pub fn run_experiment(spec: ExperimentSpec) -> ExperimentResult {
    let cfg = analyzer_config(spec.os, spec.workload);
    run_experiment_with(spec, cfg)
}

/// Runs one experiment with an explicit analyzer configuration (used by
/// the classifier-tolerance ablation).
pub fn run_experiment_with(spec: ExperimentSpec, cfg: AnalyzerConfig) -> ExperimentResult {
    let _experiment_span = telemetry::span("stage.experiment");
    // Everything sim-plane recorded below (wheel, trace, netsim, virtual
    // time) lands in a fresh scoped accumulator, so the snapshot is this
    // experiment's alone regardless of which worker thread ran it.
    let (mut result, metrics) = telemetry::sim::scoped(|| {
        let analyzer: Box<dyn TraceSink> =
            Box::new(ChunkedAnalyzerSink::new(TraceAnalyzer::new(cfg)));
        let sink = wrap_in_faults(&spec, analyzer);
        let net = spec.faults.net;
        match spec.os {
            Os::Linux => {
                let mut kernel = {
                    let _workload_span = telemetry::span("stage.workload");
                    workloads::run_linux_configured(
                        spec.workload,
                        spec.seed,
                        spec.duration,
                        sink,
                        net,
                        spec.backend,
                        spec.adaptive,
                    )
                };
                conclude(spec, kernel.cpu().clone(), kernel.log_mut())
            }
            Os::Vista => {
                let mut kernel = {
                    let _workload_span = telemetry::span("stage.workload");
                    workloads::run_vista_configured(
                        spec.workload,
                        spec.seed,
                        spec.duration,
                        sink,
                        net,
                        spec.backend,
                        spec.adaptive,
                    )
                };
                conclude(spec, kernel.cpu().clone(), kernel.log_mut())
            }
        }
    });
    result.metrics = metrics;
    result
}

/// Finishes a completed run under the `stage.analysis` span, from what
/// either kernel model leaves behind: its CPU counters and its trace log,
/// whose sink holds the analyzer.
fn conclude(spec: ExperimentSpec, cpu: CpuMeter, log: &mut TraceLog) -> ExperimentResult {
    let _analysis_span = telemetry::span("stage.analysis");
    let (analyzer, dropped) = recover_analyzer(log.sink_mut());
    let mut report = analyzer.finish(log.strings());
    report.summary.dropped_records = dropped;
    ExperimentResult {
        spec,
        report,
        wakeups: cpu.wakeups(),
        busy: cpu.busy_time(),
        records: log.records_logged(),
        logging_overhead: log.modeled_overhead(),
        metrics: telemetry::SimSnapshot::empty(),
    }
}

/// Installs the fault adaptor only when a trace-plane fault is active,
/// so a clean spec's sink chain is structurally identical to the
/// pre-fault-plane one.
fn wrap_in_faults(spec: &ExperimentSpec, sink: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
    let trace_faulted = !spec.faults.drops.is_none() || !spec.faults.clock.is_none();
    if trace_faulted {
        Box::new(FaultSink::new(
            sink,
            spec.faults.drops,
            spec.faults.clock,
            spec.faults.seed,
        ))
    } else {
        sink
    }
}

/// Recovers the analyzer (and any fault adaptor's drop count) from the
/// kernel's sink.
fn recover_analyzer(sink: &mut dyn TraceSink) -> (TraceAnalyzer, u64) {
    if let Some(fault) = sink
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<FaultSink>())
    {
        let dropped = fault.dropped();
        return (take_analyzer(fault.inner_mut()), dropped);
    }
    (take_analyzer(sink), 0)
}

/// Recovers the analyzer from the kernel's sink, flushing any buffered
/// tail chunk first.
fn take_analyzer(sink: &mut dyn TraceSink) -> TraceAnalyzer {
    sink.as_any_mut()
        .and_then(|a| a.downcast_mut::<ChunkedAnalyzerSink>())
        .and_then(ChunkedAnalyzerSink::take)
        .expect("experiment sink is always a ChunkedAnalyzerSink")
}

/// Runs a batch of experiments strictly serially, in spec order.
///
/// This is the reference execution path that the parallel runner
/// ([`crate::parallel::run_experiments_parallel`]) is differentially
/// tested against: both must produce bit-identical results.
pub fn run_experiments(specs: &[ExperimentSpec]) -> Vec<ExperimentResult> {
    specs.iter().copied().map(run_experiment).collect()
}

/// The specs of the four Table 1/2 workloads on one OS.
pub fn table_specs(os: Os, duration: SimDuration, seed: u64) -> Vec<ExperimentSpec> {
    Workload::TABLE_WORKLOADS
        .iter()
        .map(|&workload| ExperimentSpec::new(os, workload, duration, seed))
        .collect()
}

/// Convenience: runs all four Table 1/2 workloads on one OS, in parallel
/// through the process-wide experiment cache (repeated calls with the
/// same parameters reuse the cached reports).
pub fn run_table_workloads(os: Os, duration: SimDuration, seed: u64) -> Vec<ExperimentResult> {
    crate::cache::global().run_all(&table_specs(os, duration, seed))
}
