//! The closed-loop measurement of one workload, untraced and traced, and
//! the metrics each emits.

use std::time::Instant;

use telemetry::{SimCounter, SimSnapshot};

use crate::stats::{median, Summary};
use crate::traced::{self, Clock, Span};
use crate::workload::{Checker, Workload};

/// Untimed-for-`wall_s` reps run before measuring. The first is cold
/// (first-touch heap, allocator growth); `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Set-up reps go on past [`SETUP_REPS`] until they have taken this long,
/// so that a workload with short reps takes `setup_s` as the median of
/// enough of them to be steady.
pub const SETUP_SECONDS: f64 = 1.0;

/// Timed reps taken even when one rep outlasts the time budget.
pub const MIN_TIMED_REPS: usize = 3;

/// Worker threads the program's pool uses for this workload.
pub fn threads(workload: Workload, seed: u64) -> usize {
    if workload.pooled() {
        timerstudy::default_threads_for(&workload.specs(seed))
    } else {
        1
    }
}

/// One untraced run of a workload.
#[derive(Debug, Clone)]
pub struct RunMeasurement {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Pool width.
    pub threads: usize,
    /// Host seconds of each set-up rep (spec generation plus one rep).
    pub setup_s: Vec<f64>,
    /// Host seconds of each timed rep.
    pub wall_s: Vec<f64>,
    /// Trace records simulated and analysed per host second, per rep.
    pub events_per_s: Vec<f64>,
    /// Peak resident set of the process through its first rep, in MB.
    pub peak_rss_mb: f64,
    /// Correctness accounting over every rep.
    pub check: Checker,
}

/// Runs `workload` at `seed`: set-up reps (at least [`SETUP_REPS`], for at
/// least [`SETUP_SECONDS`]), then timed reps back to back (a closed loop:
/// one rep in flight) while the next one is expected to finish within
/// `seconds`.
///
/// The peak resident set is read right after the first rep, which is what
/// a one-shot `repro_all` user pays. It is only meaningful in a process
/// that has run nothing else: later reps start from whatever heap the
/// allocator kept, which varied from 33 to 73 MB between `paper` reps.
pub fn run(workload: Workload, seed: u64, seconds: f64) -> RunMeasurement {
    let mut check = Checker::new(workload, seed);
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut peak_rss_mb = 0.0;
    let setup_start = Instant::now();
    while setup_s.len() < SETUP_REPS || setup_start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let start = Instant::now();
        let specs = workload.specs(seed);
        let rep = workload.rep(&specs);
        setup_s.push(start.elapsed().as_secs_f64());
        check.check(rep.experiments, rep.digest, rep.consistent);
        if setup_s.len() == 1 {
            peak_rss_mb = read_peak_rss_mb();
        }
    }
    let specs = workload.specs(seed);
    let start = Instant::now();
    let (mut wall_s, mut events_per_s) = (Vec::new(), Vec::new());
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let next = median(&wall_s);
        if wall_s.len() >= MIN_TIMED_REPS && elapsed + next > seconds {
            break;
        }
        let rep = workload.rep(&specs);
        check.check(rep.experiments, rep.digest, rep.consistent);
        let wall = rep.wall.as_secs_f64();
        wall_s.push(wall);
        events_per_s.push(rep.records as f64 / wall);
    }
    RunMeasurement {
        workload,
        seed,
        threads: threads(workload, seed),
        setup_s,
        wall_s,
        events_per_s,
        peak_rss_mb,
        check,
    }
}

/// One metric value as emitted.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The reported value.
    pub value: f64,
    /// The samples behind it (one for single readings).
    pub samples: Vec<f64>,
}

impl Metric {
    fn single(name: &'static str, value: f64) -> Metric {
        Metric {
            name,
            value,
            samples: vec![value],
        }
    }
}

impl RunMeasurement {
    /// The end-to-end metrics.
    ///
    /// `wall_s` and `events_per_s` come from the fastest timed rep. On a
    /// shared host, interference from other tenants only ever adds time,
    /// in bursts of a few seconds; over 137 back-to-back `vista_firefox`
    /// reps the median of each 12-rep window spread 11 % between windows,
    /// the fastest rep 2 %. `setup_s` is the median of the set-up reps.
    pub fn metrics(&self) -> Vec<Metric> {
        let fastest = self.wall_s.iter().copied().fold(f64::INFINITY, f64::min);
        let busiest = self.events_per_s.iter().copied().fold(0.0, f64::max);
        vec![
            Metric {
                name: "wall_s",
                value: fastest,
                samples: self.wall_s.clone(),
            },
            Metric {
                name: "events_per_s",
                value: busiest,
                samples: self.events_per_s.clone(),
            },
            Metric::single("peak_rss_mb", self.peak_rss_mb),
            Metric {
                name: "setup_s",
                value: median(&self.setup_s),
                samples: self.setup_s.clone(),
            },
        ]
    }
}

/// One traced run of a workload.
#[derive(Debug, Clone)]
pub struct TraceMeasurement {
    /// The workload.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// Pool width.
    pub threads: usize,
    /// Median host seconds of the untraced reps.
    pub untraced_wall_s: f64,
    /// Host seconds of the traced pool pass (experiments only).
    pub pool_s: f64,
    /// Every span of the traced pass; experiment `i` has trace id `i + 1`.
    pub spans: Vec<Span>,
    /// Per-layer totals.
    pub layers: Layers,
    /// Largest share of a traced experiment's span that its sim, fold and
    /// finish self times leave unaccounted for.
    pub worst_unattributed: f64,
    /// Correctness accounting: the untraced reps, then the traced pass
    /// against the same reference.
    pub check: Checker,
}

/// Per-layer totals of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layers {
    /// Experiments traced.
    pub experiments: u64,
    /// Σ experiment spans.
    pub busy_s: f64,
    /// Longest experiment span.
    pub critical_path_s: f64,
    /// Kernel and workload self time.
    pub sim_self_s: f64,
    /// Time in `push_chunk`.
    pub fold_s: f64,
    /// Chunks folded.
    pub chunks: u64,
    /// Time in `finish`.
    pub finish_s: f64,
    /// Time assembling and rendering the output.
    pub render_s: f64,
    /// Queue replay operations.
    pub replay_ops: u64,
    /// Queue replay time.
    pub replay_s: f64,
    /// The experiments' sim-plane snapshots, merged.
    pub sim: SimSnapshot,
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `workload` at `seed` untraced ([`SETUP_REPS`] reps, so caches and
/// the allocator are warm and the tracing overhead can be read off), then
/// once through the traced path on the same pool width, renders, and
/// finally replays each Linux experiment's wheel stream.
pub fn trace(workload: Workload, seed: u64) -> TraceMeasurement {
    let specs = workload.specs(seed);
    let mut check = Checker::new(workload, seed);
    let mut untraced = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        let rep = workload.rep(&specs);
        check.check(rep.experiments, rep.digest, rep.consistent);
        untraced.push(rep.wall.as_secs_f64());
    }
    let threads = threads(workload, seed);
    let clock = Clock::start();
    let start = Instant::now();
    let traced = traced::run_all(&specs, threads, &clock);
    let render_start = Instant::now();
    let pool_s = (render_start - start).as_secs_f64();
    let complete: Option<Vec<timerstudy::ExperimentResult>> = traced
        .iter()
        .map(|t| t.as_ref().map(|t| t.result.clone()))
        .collect();
    let rendered = complete.as_ref().map(|results| workload.render(results));
    let end = Instant::now();

    let mut spans = Vec::new();
    let mut layers = Layers {
        experiments: specs.len() as u64,
        render_s: (end - render_start).as_secs_f64(),
        ..Layers::default()
    };
    let mut worst_unattributed: f64 = 0.0;
    for (i, t) in traced.iter().enumerate() {
        let Some(t) = t else { continue };
        let base = spans.len();
        spans.extend(t.spans.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
        let wall = t.wall().as_secs_f64();
        let parts = (t.sim_self + t.fold + t.finish).as_secs_f64();
        worst_unattributed = worst_unattributed.max(ratio(wall - parts, wall));
        layers.busy_s += wall;
        layers.critical_path_s = layers.critical_path_s.max(wall);
        layers.sim_self_s += t.sim_self.as_secs_f64();
        layers.fold_s += t.fold.as_secs_f64();
        layers.chunks += t.chunks;
        layers.finish_s += t.finish.as_secs_f64();
        if let Some(log) = &t.replay {
            let (replay, span) = log.replay(&clock, i as u64 + 1);
            layers.replay_ops += replay.ops;
            layers.replay_s += replay.elapsed.as_secs_f64();
            spans.push(span);
        }
        layers.sim.merge(&t.result.metrics);
    }
    spans.push(clock.span("render", 0, (render_start, end), None));

    let digest = complete
        .as_ref()
        .zip(rendered.as_ref())
        .map(|(results, rendered)| crate::workload::digest(rendered, results));
    let consistent = complete
        .as_ref()
        .is_some_and(|results| results.iter().all(crate::workload::consistent));
    check.check(specs.len() as u64, digest, consistent);

    TraceMeasurement {
        workload,
        seed,
        threads,
        untraced_wall_s: median(&untraced),
        pool_s,
        spans,
        layers,
        worst_unattributed,
        check,
    }
}

impl TraceMeasurement {
    /// The per-layer metrics of the traced pass.
    pub fn metrics(&self) -> Vec<Metric> {
        let l = &self.layers;
        let count = |c: SimCounter| l.sim.counter(c) as f64;
        let records = count(SimCounter::TraceRecords);
        let (schedules, cancels) = (
            count(SimCounter::WheelSchedules),
            count(SimCounter::WheelCancels),
        );
        let expirations = count(SimCounter::WheelExpirations);
        let cascade_moves = count(SimCounter::WheelCascadeMoves);
        let pairs: Vec<(&'static str, f64)> = vec![
            ("core.busy_s", l.busy_s),
            ("core.critical_path_s", l.critical_path_s),
            (
                "core.pool_efficiency",
                ratio(l.busy_s, self.threads as f64 * self.pool_s),
            ),
            ("core.experiments", l.experiments as f64),
            ("sim.self_s", l.sim_self_s),
            ("sim.ns_per_event", ratio(l.sim_self_s * 1e9, records)),
            ("trace.records", records),
            ("wheel.schedules", schedules),
            ("wheel.cancels", cancels),
            ("wheel.expirations", expirations),
            ("wheel.cascade_moves", cascade_moves),
            ("wheel.cancel_ratio", ratio(cancels, schedules)),
            (
                "wheel.cascade_moves_per_expiration",
                ratio(cascade_moves, expirations),
            ),
            ("net.segments_sent", count(SimCounter::NetSegmentsSent)),
            ("net.retransmits", count(SimCounter::NetRetransmits)),
            (
                "wheel.replay_ns_per_op",
                ratio(l.replay_s * 1e9, l.replay_ops as f64),
            ),
            ("wheel.replay_ops", l.replay_ops as f64),
            ("analysis.fold_s", l.fold_s),
            ("analysis.fold_ns_per_event", ratio(l.fold_s * 1e9, records)),
            ("analysis.chunks", l.chunks as f64),
            ("analysis.finish_s", l.finish_s),
            ("render.s", l.render_s),
        ];
        pairs
            .into_iter()
            .map(|(name, value)| Metric::single(name, value))
            .collect()
    }
}

/// The process's peak resident set, `VmHWM`, in MB (0 where `/proc` is
/// unavailable).
fn read_peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The summary line printed for one metric: its value, then the median,
/// quartiles and range of the samples behind it when there are several.
pub fn describe(metric: &Metric, unit: &str) -> String {
    let line = format!("  {:<36} {:>16.6} {unit}", metric.name, metric.value);
    if metric.samples.len() < 2 {
        return line;
    }
    let s = Summary::of(&metric.samples);
    format!(
        "{line:<62} median {:.6}  q1 {:.6}  q3 {:.6}  min {:.6}  max {:.6}  n {}",
        s.median, s.q1, s.q3, s.min, s.max, s.n
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::config;

    fn names(metrics: &[Metric]) -> Vec<&str> {
        metrics.iter().map(|m| m.name).collect()
    }

    fn declared(defs: &[crate::config::MetricDef]) -> Vec<&str> {
        defs.iter().map(|m| m.name.as_str()).collect()
    }

    #[test]
    fn every_declared_end_to_end_metric_is_emitted() {
        let m = RunMeasurement {
            workload: Workload::Paper,
            seed: 7,
            threads: 2,
            setup_s: vec![3.0, 2.0, 2.1],
            wall_s: vec![2.0, 2.2],
            events_per_s: vec![6e6, 5.5e6],
            peak_rss_mb: 100.0,
            check: Checker::new(Workload::Paper, 7),
        };
        let metrics = m.metrics();
        assert_eq!(names(&metrics), declared(&config().end_to_end));
        let values: Vec<f64> = metrics.iter().map(|m| m.value).collect();
        assert_eq!(values, [2.0, 6e6, 100.0, 2.1]);
    }

    #[test]
    fn every_declared_per_layer_metric_is_emitted() {
        let m = TraceMeasurement {
            workload: Workload::Paper60s,
            seed: 7,
            threads: 2,
            untraced_wall_s: 1.0,
            pool_s: 1.1,
            spans: Vec::new(),
            layers: Layers::default(),
            worst_unattributed: 0.0,
            check: Checker::new(Workload::Paper60s, 7),
        };
        let metrics = m.metrics();
        assert_eq!(names(&metrics), declared(&config().per_layer));
        assert!(metrics.iter().all(|m| m.value.is_finite()));
    }

    #[test]
    fn peak_rss_is_readable() {
        assert!(read_peak_rss_mb() > 0.0);
    }
}
