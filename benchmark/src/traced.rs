//! The traced path: one experiment run layer by layer from the
//! benchmark's own code, with a span around each call into a layer.
//!
//! The kernel runs through `workloads::run_{linux,vista}_configured` with
//! a benchmark sink that buffers the trace in the production chunk size
//! and times every `TraceAnalyzer::push_chunk`; `finish` is timed after
//! the run. Simulation self time is the run's span minus the folds inside
//! it. A Linux run's Set/Cancel stream is kept and replayed through the
//! native jiffy wheel after the pass, which times the queue layer alone.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use analysis::TraceAnalyzer;
use simtime::LINUX_HZ;
use timerstudy::experiment::analyzer_config;
use timerstudy::{ExperimentResult, ExperimentSpec, Os, ANALYSIS_CHUNK_EVENTS};
use trace::{Event, EventKind, TraceLog, TraceSink};
use wheel::{Backend, Tick, TimerId};

/// One timed interval, relative to the traced pass's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary the span times.
    pub name: &'static str,
    /// Shared by every span of one experiment (0: the workload itself).
    pub trace: u64,
    /// Start, in nanoseconds since the epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the epoch.
    pub end_ns: u64,
    /// Index of the causing span in the same list.
    pub parent: Option<usize>,
}

/// A span recorder sharing one epoch.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    epoch: Instant,
}

impl Clock {
    /// A clock whose epoch is now.
    pub fn start() -> Clock {
        Clock {
            epoch: Instant::now(),
        }
    }

    /// A span from `start` to `end` on this clock.
    pub fn span(
        &self,
        name: &'static str,
        trace: u64,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
    ) -> Span {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        Span {
            name,
            trace,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        }
    }
}

/// One Set or Cancel of a jiffy-wheel timer, as the trace recorded it.
#[derive(Debug, Clone, Copy)]
struct ReplayOp {
    /// The jiffy the operation happened in.
    now: Tick,
    timer: TimerId,
    /// Armed expiry jiffy, or [`CANCEL`].
    expires: Tick,
}

const CANCEL: Tick = Tick::MAX;

/// A Linux run's wheel Set/Cancel stream, in trace order.
#[derive(Debug, Clone, Default)]
pub struct ReplayLog {
    ops: Vec<ReplayOp>,
    /// The jiffy of the last record.
    end: Tick,
}

impl ReplayLog {
    fn record(&mut self, event: &Event) {
        let jiffy = LINUX_HZ.period().as_nanos();
        let now = event.ts.as_nanos() / jiffy;
        self.end = now;
        match (event.kind, event.expires) {
            // Wheel timers expire on a jiffy boundary; high-resolution
            // timers (nanosleep) almost never do and are not replayed.
            (EventKind::Set, Some(exp)) if exp.as_nanos() % jiffy == 0 => self.ops.push(ReplayOp {
                now,
                timer: event.timer,
                expires: exp.as_nanos() / jiffy,
            }),
            (EventKind::Cancel, _) => self.ops.push(ReplayOp {
                now,
                timer: event.timer,
                expires: CANCEL,
            }),
            _ => {}
        }
    }

    /// Replays the stream through `Backend::Native.build(Hierarchical,
    /// 256)` — the Linux model's own queue — advancing to each operation's
    /// jiffy first, then to the last record's.
    pub fn replay(&self, clock: &Clock, trace: u64) -> (ReplayStats, Span) {
        // The replay's own wheel counters must not leak into any snapshot.
        let ((stats, window), _) = telemetry::sim::scoped(|| {
            let mut queue = Backend::Native.build(Backend::Hierarchical, 256);
            let mut fires = 0u64;
            let start = Instant::now();
            for op in &self.ops {
                queue.advance_to(op.now, &mut |_, _| fires += 1);
                if op.expires == CANCEL {
                    queue.cancel(op.timer);
                } else {
                    queue.schedule(op.timer, op.expires);
                }
            }
            queue.advance_to(self.end, &mut |_, _| fires += 1);
            let stop = Instant::now();
            let stats = ReplayStats {
                ops: self.ops.len() as u64,
                fires,
                elapsed: stop - start,
            };
            (stats, (start, stop))
        });
        (stats, clock.span("wheel.replay", trace, window, None))
    }
}

/// The queue layer measured alone.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayStats {
    /// Schedules and cancels issued.
    pub ops: u64,
    /// Timers the replayed wheel fired.
    pub fires: u64,
    /// Host time of the replay.
    pub elapsed: Duration,
}

/// The benchmark's analysis sink: the production chunking, with each
/// fold timed.
struct TimedSink {
    analyzer: Option<TraceAnalyzer>,
    buf: Vec<Event>,
    folds: Vec<(Instant, Instant)>,
    /// Kept for Linux runs only.
    replay: Option<ReplayLog>,
}

impl TimedSink {
    fn new(analyzer: Option<TraceAnalyzer>, replay: bool) -> TimedSink {
        TimedSink {
            analyzer,
            buf: Vec::with_capacity(ANALYSIS_CHUNK_EVENTS),
            folds: Vec::new(),
            replay: replay.then(ReplayLog::default),
        }
    }

    fn flush(&mut self) {
        if self.buf.is_empty() {
            return;
        }
        let start = Instant::now();
        if let Some(a) = self.analyzer.as_mut() {
            a.push_chunk(&self.buf);
        }
        self.folds.push((start, Instant::now()));
        self.buf.clear();
    }
}

impl TraceSink for TimedSink {
    fn record(&mut self, event: &Event) {
        if let Some(log) = self.replay.as_mut() {
            log.record(event);
        }
        self.buf.push(*event);
        if self.buf.len() >= ANALYSIS_CHUNK_EVENTS {
            self.flush();
        }
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

/// One experiment run through the traced path.
#[derive(Debug, Clone)]
pub struct Traced {
    /// The same result `run_experiment` returns for the spec.
    pub result: ExperimentResult,
    /// This experiment's spans; `spans[0]` is the whole experiment.
    pub spans: Vec<Span>,
    /// Host time in the kernel run, excluding the folds inside it.
    pub sim_self: Duration,
    /// Host time in `push_chunk`.
    pub fold: Duration,
    /// Chunks folded.
    pub chunks: u64,
    /// Host time in `finish`.
    pub finish: Duration,
    /// The wheel Set/Cancel stream to replay (Linux only).
    pub replay: Option<ReplayLog>,
}

impl Traced {
    /// Host time of the whole experiment.
    pub fn wall(&self) -> Duration {
        Duration::from_nanos(self.spans[0].end_ns - self.spans[0].start_ns)
    }
}

/// A finished kernel run with its analysis completed.
struct Finished {
    sink: TimedSink,
    sim_end: Instant,
    finish_start: Instant,
    end: Instant,
    result: ExperimentResult,
}

/// Folds the tail chunk (after the kernel returns, as in production),
/// then times `finish`.
fn finish(
    spec: ExperimentSpec,
    sim_end: Instant,
    log: &mut TraceLog,
    (wakeups, busy): (u64, simtime::SimDuration),
) -> Finished {
    let sink = log
        .sink_mut()
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<TimedSink>())
        .expect("the kernel logs into the benchmark's sink");
    let mut sink = std::mem::replace(sink, TimedSink::new(None, false));
    sink.flush();
    let analyzer = sink.analyzer.take().expect("the sink owns its analyzer");
    let finish_start = Instant::now();
    let report = analyzer.finish(log.strings());
    let end = Instant::now();
    Finished {
        sink,
        sim_end,
        finish_start,
        end,
        result: ExperimentResult {
            spec,
            report,
            wakeups,
            busy,
            records: log.records_logged(),
            logging_overhead: log.modeled_overhead(),
            metrics: telemetry::SimSnapshot::empty(),
        },
    }
}

/// Runs `spec` through the traced path, tagging its spans with `trace`.
pub fn run(spec: ExperimentSpec, clock: &Clock, trace: u64) -> Traced {
    let start = Instant::now();
    let analyzer = TraceAnalyzer::new(analyzer_config(spec.os, spec.workload));
    let sink = Box::new(TimedSink::new(Some(analyzer), spec.os == Os::Linux));
    let net = spec.faults.net;
    let (done, metrics) = telemetry::sim::scoped(|| match spec.os {
        Os::Linux => {
            let mut k = workloads::run_linux_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                spec.backend,
                spec.adaptive,
            );
            let sim_end = Instant::now();
            let cpu = (k.cpu().wakeups(), k.cpu().busy_time());
            finish(spec, sim_end, k.log_mut(), cpu)
        }
        Os::Vista => {
            let mut k = workloads::run_vista_configured(
                spec.workload,
                spec.seed,
                spec.duration,
                sink,
                net,
                spec.backend,
                spec.adaptive,
            );
            let sim_end = Instant::now();
            let cpu = (k.cpu().wakeups(), k.cpu().busy_time());
            finish(spec, sim_end, k.log_mut(), cpu)
        }
    });
    let Finished {
        sink,
        sim_end,
        finish_start,
        end,
        mut result,
    } = done;
    result.metrics = metrics;

    let mut spans = vec![
        clock.span("experiment", trace, (start, end), None),
        clock.span("sim", trace, (start, sim_end), Some(0)),
    ];
    let mut fold = Duration::ZERO;
    let mut sim_self = sim_end - start;
    for &(a, b) in &sink.folds {
        fold += b - a;
        let inside_sim = b <= sim_end;
        if inside_sim {
            sim_self = sim_self.saturating_sub(b - a);
        }
        let parent = if inside_sim { 1 } else { 0 };
        spans.push(clock.span("analysis.fold", trace, (a, b), Some(parent)));
    }
    spans.push(clock.span("analysis.finish", trace, (finish_start, end), Some(0)));

    Traced {
        result,
        spans,
        sim_self,
        fold,
        chunks: sink.folds.len() as u64,
        finish: end - finish_start,
        replay: sink.replay,
    }
}

/// Runs `specs` through the traced path on `threads` workers pulling from
/// one queue, as the program's pool does. Experiment `i` gets trace id
/// `i + 1`; a panicking experiment yields `None`.
pub fn run_all(specs: &[ExperimentSpec], threads: usize, clock: &Clock) -> Vec<Option<Traced>> {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Traced>>> = Mutex::new(vec![None; specs.len()]);
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, specs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&spec) = specs.get(i) else { break };
                let traced =
                    panic::catch_unwind(AssertUnwindSafe(|| run(spec, clock, i as u64 + 1))).ok();
                slots
                    .lock()
                    .expect("no traced worker panics holding the lock")[i] = traced;
            });
        }
    });
    slots.into_inner().expect("traced workers have finished")
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimDuration;
    use telemetry::SimCounter;
    use timerstudy::Workload as W;

    fn digest_of(result: &ExperimentResult) -> u64 {
        let rendered = vec![timerstudy::render::summary_table(std::slice::from_ref(
            result,
        ))];
        crate::workload::digest(&rendered, std::slice::from_ref(result))
    }

    #[test]
    fn traced_path_matches_run_experiment() {
        let clock = Clock::start();
        for (os, workload) in [(Os::Linux, W::Firefox), (Os::Vista, W::Skype)] {
            let spec = ExperimentSpec::new(os, workload, SimDuration::from_secs(5), 7);
            let traced = run(spec, &clock, 1);
            let plain = timerstudy::run_experiment(spec);
            assert_eq!(
                digest_of(&traced.result),
                digest_of(&plain),
                "{os:?} {workload:?}"
            );
            assert_eq!(traced.result.records, plain.records);
            assert_eq!(
                format!("{:?}", traced.result.report),
                format!("{:?}", plain.report)
            );
            assert_eq!(traced.replay.is_some(), os == Os::Linux);
            assert!(traced.chunks > 0);
            // Self times partition the experiment's span.
            let parts = traced.sim_self + traced.fold + traced.finish;
            assert!(parts <= traced.wall(), "{parts:?} > {:?}", traced.wall());
        }
    }

    #[test]
    fn linux_replay_fires_equal_trace_expirations() {
        let clock = Clock::start();
        for workload in [W::Idle, W::Firefox, W::Webserver, W::ApacheScale] {
            let spec = ExperimentSpec::new(Os::Linux, workload, SimDuration::from_secs(5), 7);
            let traced = run(spec, &clock, 1);
            let log = traced.replay.expect("Linux runs keep a replay log");
            let (replay, span) = log.replay(&clock, 1);
            assert_eq!(span.name, "wheel.replay");
            let expirations = traced.result.metrics.counter(SimCounter::WheelExpirations);
            assert!(expirations > 0, "{workload:?}");
            assert_eq!(replay.fires, expirations, "{workload:?}");
        }
    }

    #[test]
    fn pool_returns_results_in_spec_order() {
        let specs: Vec<ExperimentSpec> = (0..3)
            .map(|t| {
                ExperimentSpec::new(Os::Vista, W::Idle, SimDuration::from_secs(1), 7).for_trial(t)
            })
            .collect();
        let traced = run_all(&specs, 2, &Clock::start());
        for (i, (t, spec)) in traced.iter().zip(&specs).enumerate() {
            let t = t.as_ref().expect("no experiment panics");
            assert_eq!(t.result.spec, *spec);
            assert!(t.spans.iter().all(|s| s.trace == i as u64 + 1));
        }
    }
}
