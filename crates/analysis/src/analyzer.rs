//! The composed streaming analyzer and its report.

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;
use simtime::SimDuration;
use trace::{Event, EventCounts, Pid, StringTable};

use crate::classify::{Classifier, PatternMix};
use crate::countdown::{Dot, DotSeries};
use crate::lifecycle::LifecycleTracker;
use crate::provenance::{Origins, ProvenanceRow};
use crate::scatter::{ScatterBuilder, ScatterPoint};
use crate::summary::{RateSeries, TraceSummary};
use crate::values::{SetValues, ValueRow};

/// How episodes are clustered into "a timer" for classification, and so
/// which table holds the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterMode {
    /// By timer address — natural on Linux, where structs are static.
    /// The cluster lives in the timer's lifecycle-table slot.
    ByAddress,
    /// By (origin, pid) — required on Vista, where KTIMERs are allocated
    /// fresh per use (§3.3). The cluster lives in the origin's slot.
    ByOriginPid,
}

/// Analyzer configuration.
#[derive(Debug, Clone)]
pub struct AnalyzerConfig {
    /// Jitter tolerance (the paper's experimentally determined 2 ms).
    pub tolerance: SimDuration,
    /// Cluster mode for pattern classification.
    pub cluster_mode: ClusterMode,
    /// Explicit pid → Figure 1 group labels.
    pub rate_groups: FoldMap<Pid, String>,
    /// Processes whose sets become Figure 4 dots (Xorg).
    pub dot_pids: Vec<Pid>,
    /// Processes filtered out of Figures 5/6 and the scatter plots
    /// (X and icewm).
    pub exclude_pids: Vec<Pid>,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            tolerance: SimDuration::from_millis(2),
            cluster_mode: ClusterMode::ByAddress,
            rate_groups: FoldMap::default(),
            dot_pids: Vec::new(),
            exclude_pids: Vec::new(),
        }
    }
}

impl AnalyzerConfig {
    /// The configuration used for Linux traces.
    pub fn linux() -> Self {
        Self::default()
    }

    /// The configuration used for Vista traces.
    pub fn vista() -> Self {
        AnalyzerConfig {
            cluster_mode: ClusterMode::ByOriginPid,
            ..Self::default()
        }
    }
}

/// Everything the paper's tables and figures need, in one serialisable
/// bundle.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    /// Table 1/2 column.
    pub summary: TraceSummary,
    /// Figure 2 data.
    pub pattern_mix: PatternMix,
    /// Figure 3 / 7 rows (unfiltered) at the ≥ 2 % rule.
    pub values_all: Vec<ValueRow>,
    /// Coverage of the ≥ 2 % rows (the paper quotes these percentages).
    pub values_all_coverage: f64,
    /// Figure 5 rows (X/icewm filtered).
    pub values_filtered: Vec<ValueRow>,
    /// Coverage of the filtered rows.
    pub values_filtered_coverage: f64,
    /// Figure 6 rows (user-space sets only, filtered).
    pub values_user: Vec<ValueRow>,
    /// Figures 8–11 points.
    pub scatter: Vec<ScatterPoint>,
    /// Figure 4 dots.
    pub fig4_dots: Vec<Dot>,
    /// Figure 1 series: group → sets/second (ordered for deterministic
    /// serialisation).
    pub rate_series: std::collections::BTreeMap<String, Vec<u32>>,
    /// Table 3 rows.
    pub provenance: Vec<ProvenanceRow>,
    /// Per-origin attribution (§5's provenance-tracking proposal):
    /// counts, timeout-value and set-vs-fired slack histograms, in
    /// canonical order. Riding inside the report keeps it byte-identical
    /// across execution modes and cache replay for free.
    pub attribution: telemetry::OriginTable,
}

/// The composed streaming analyzer.
pub struct TraceAnalyzer {
    cfg: AnalyzerConfig,
    lifecycle: LifecycleTracker,
    counts: EventCounts,
    origins: Origins,
    values: SetValues,
    dots: DotSeries,
    scatter: ScatterBuilder,
    rates: RateSeries,
    /// Records the trace layer decoded unsuccessfully before this
    /// analyzer ever saw them (lossy-merge accounting), folded into the
    /// summary's lost-record rows.
    decode_lost: u64,
}

impl std::fmt::Debug for TraceAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceAnalyzer")
            .field("accesses", &self.counts.accesses)
            .finish()
    }
}

impl TraceAnalyzer {
    /// Creates an analyzer.
    pub fn new(cfg: AnalyzerConfig) -> Self {
        TraceAnalyzer {
            lifecycle: LifecycleTracker::new(),
            counts: EventCounts::default(),
            origins: Origins::default(),
            values: SetValues::default(),
            dots: DotSeries::new(cfg.dot_pids.clone()),
            scatter: ScatterBuilder::new(),
            rates: RateSeries::new(cfg.rate_groups.clone()),
            decode_lost: 0,
            cfg,
        }
    }

    /// Accounts `n` records the trace layer could not decode (e.g. the
    /// damaged records and torn tail a lossy [`trace::RingReader`] pass
    /// skipped). They surface as [`TraceSummary::decode_lost`].
    pub fn note_decode_lost(&mut self, n: u64) {
        self.decode_lost += n;
    }

    /// Feeds one event through every component: a one-event
    /// [`push_chunk`](Self::push_chunk).
    pub fn push(&mut self, event: &Event) {
        self.push_chunk(std::slice::from_ref(event));
    }

    /// Feeds a whole chunk, component-major: each component folds the
    /// full chunk before the next starts. The components are independent
    /// folds over the same stream, so the final state is identical to
    /// folding the events one at a time — chunk boundaries carry no
    /// semantics — while each inner loop keeps one component's state and
    /// code hot. This is the analyzer's only fold.
    pub fn push_chunk(&mut self, events: &[Event]) {
        for event in events {
            self.counts.absorb(event);
        }
        for event in events {
            self.rates.push(event);
        }
        for event in events {
            self.values.push(event, &self.cfg.exclude_pids);
        }
        // The telemetry switch is read once per chunk.
        let attribute = telemetry::enabled();
        for event in events {
            self.push_keyed(event, attribute);
        }
    }

    /// The per-key pass: the event counts toward its origin's attribution
    /// row when `attribute` is set and probes the timer table once, a
    /// timed Set of a followed process becomes a Figure 4 dot, and a
    /// closed episode goes to its pattern cluster, its origin's entry and
    /// the scatter.
    fn push_keyed(&mut self, event: &Event, attribute: bool) {
        if attribute {
            self.origins.slot(event.origin).attribute(event);
        }
        let (sample, slot) = self.lifecycle.push(event);
        self.dots.push(event);
        let Some(sample) = sample else {
            return;
        };
        let tolerance = self.cfg.tolerance;
        let origin = self.origins.slot(sample.origin);
        let cluster = match self.cfg.cluster_mode {
            ClusterMode::ByAddress => &mut slot.cluster,
            ClusterMode::ByOriginPid => origin.pid_cluster(sample.pid),
        };
        cluster.push(&sample, tolerance);
        origin.push(&sample, tolerance);
        if !self.cfg.exclude_pids.contains(&sample.pid) {
            self.scatter.push(&sample);
        }
    }

    /// Finalises into a [`Report`]; `strings` resolves origin labels.
    pub fn finish(self, strings: &StringTable) -> Report {
        let mut summary = TraceSummary::from_counts(
            self.counts,
            self.lifecycle.timer_count() as u64,
            self.lifecycle.peak_concurrency() as u64,
        );
        summary.orphan_ends = self.lifecycle.orphan_ends();
        summary.decode_lost = self.decode_lost;
        summary.out_of_order_sets = self.lifecycle.out_of_order_sets();
        // One cluster mode fills the timer table's clusters, the other the
        // origin table's per-pid ones. Table 3's per-origin clusters see
        // the same episodes again and would double-count.
        let clusters = || self.lifecycle.clusters().chain(self.origins.pid_clusters());
        summary.anomalous_rearms = clusters().map(Classifier::anomalous_rearms).sum();
        let pattern_mix = PatternMix::of(clusters());
        // Built first, so its value regrouping is freed before the report's
        // copies of the Figure 4 dots and the scatter points are made.
        let provenance = self.origins.rows(1.0, 4, |o| strings.resolve(o).to_owned());
        let mut rate_series = std::collections::BTreeMap::new();
        for name in self.rates.group_names() {
            rate_series.insert(name.to_owned(), self.rates.series(name).to_vec());
        }
        Report {
            summary,
            pattern_mix,
            values_all: self.values.all.rows(2.0),
            values_all_coverage: self.values.all.coverage(2.0),
            values_filtered: self.values.filtered.rows(2.0),
            values_filtered_coverage: self.values.filtered.coverage(2.0),
            values_user: self.values.user.rows(2.0),
            scatter: self.scatter.points(),
            fig4_dots: self.dots.dots().to_vec(),
            rate_series,
            provenance,
            attribution: self.origins.attribution(|o| strings.resolve(o)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimInstant;
    use trace::EventKind::{self, Cancel, Expire, Init, Set, WaitTimedOut};

    /// An event at `ms` on timer `addr`; a `timeout_ms` of 0 means none.
    fn ev(ms: u64, kind: EventKind, addr: u64, timeout_ms: u64) -> Event {
        let e = Event::new(
            SimInstant::BOOT + SimDuration::from_millis(ms),
            kind,
            addr,
            0,
        );
        if timeout_ms > 0 {
            e.with_timeout(SimDuration::from_millis(timeout_ms))
        } else {
            e
        }
    }

    /// The per-timer table's edges: Init-only and orphan addresses are
    /// timers, a reset keeps concurrency, and a closed address is
    /// reusable. A timed Set is out of order when stamped at or before
    /// the timer's previous timed Set, even across an episode end, while
    /// untimed Sets neither count nor move that instant. Attribution rows
    /// go to exactly the origins that logged.
    #[test]
    fn per_timer_edges() {
        let mut strings = StringTable::new();
        let never_logged = strings.intern("never-logged");
        let only_cancels = strings.intern("only-cancels");
        assert!(never_logged < only_cancels);
        let events = [
            ev(0, Init, 1, 0),
            ev(1, Cancel, 2, 0), // orphan
            ev(2, Set, 3, 100),
            ev(3, Set, 4, 50),
            ev(4, Set, 5, 0),   // no timeout
            ev(12, Set, 3, 90), // reset
            ev(22, Set, 3, 80), // reset
            ev(32, Set, 3, 70), // reset
            ev(53, Expire, 4, 0),
            ev(60, Set, 4, 50), // reuse after the episode closed
            ev(61, Set, 5, 0),  // reset, no timeout
            ev(62, Set, 5, 0),  // reset
            ev(63, Set, 6, 10), // the fourth open timer
            ev(70, Cancel, 4, 0),
            ev(73, Expire, 6, 0),
            ev(102, Expire, 3, 0),
            ev(110, WaitTimedOut, 7, 0), // orphan
            ev(80, Set, 8, 10),
            ev(90, Expire, 8, 0),
            ev(75, Set, 8, 10), // before the Set at 80, across its expiry
            ev(200, Set, 9, 10),
            ev(190, Set, 9, 0),  // untimed: not counted, 200 stays
            ev(195, Set, 9, 10), // before the Set at 200
            Event {
                origin: only_cancels,
                ..ev(210, Cancel, 9, 0)
            },
        ];
        let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::linux());
        analyzer.push_chunk(&events);
        let report = analyzer.finish(&strings);
        assert_eq!(report.summary.timers, 9);
        assert_eq!(report.summary.concurrency, 4);
        assert_eq!(report.summary.orphan_ends, 2);
        assert_eq!(report.summary.out_of_order_sets, 2);
        let rows = &report.attribution.rows;
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["?", "only-cancels"]);
        let row = &rows[1];
        assert_eq!(
            (row.inits, row.sets, row.cancels, row.expirations),
            (0, 0, 1, 0)
        );
    }

    /// An event at `ms` on timer `addr`, set by `origin` in process `pid`;
    /// a `timeout_ms` of 0 means none.
    fn task_ev(
        ms: u64,
        kind: EventKind,
        addr: u64,
        origin: u32,
        pid: u32,
        timeout_ms: u64,
    ) -> Event {
        Event {
            origin,
            ..ev(ms, kind, addr, timeout_ms)
        }
        .with_task(pid, pid, trace::Space::Kernel)
    }

    /// The cluster edges, under both cluster modes: only addresses with
    /// a closed episode are clusters, Vista clusters one origin per pid
    /// while Table 3 classifies it once, an anomalous re-arm counts once,
    /// and tied origins list in origin-id order.
    #[test]
    fn per_cluster_edges() {
        let mut strings = StringTable::new();
        let a = strings.intern("z:first-interned");
        let b = strings.intern("a:second-interned");
        let events = [
            task_ev(0, Init, 1, a, 10, 0),   // Init only
            task_ev(1, Cancel, 2, a, 10, 0), // orphan only
            task_ev(2, Set, 3, a, 10, 100),
            task_ev(102, Expire, 3, a, 10, 0),
            task_ev(95, Set, 3, a, 10, 100), // stamped before the end above
            task_ev(195, Expire, 3, a, 10, 0),
            task_ev(200, Set, 4, a, 20, 100), // the same origin, another pid
            task_ev(300, Cancel, 4, a, 20, 0),
            task_ev(310, Set, 5, b, 10, 100),
            task_ev(320, Cancel, 5, b, 10, 0),
            task_ev(330, Set, 5, b, 10, 100),
            task_ev(340, Cancel, 5, b, 10, 0),
            task_ev(350, Set, 5, b, 10, 100),
            task_ev(360, Cancel, 5, b, 10, 0),
            task_ev(370, Set, 6, b, 10, 100), // never ends
        ];
        for cfg in [AnalyzerConfig::linux(), AnalyzerConfig::vista()] {
            let mode = cfg.cluster_mode;
            let mut analyzer = TraceAnalyzer::new(cfg);
            analyzer.push_chunk(&events);
            let report = analyzer.finish(&strings);
            assert_eq!(report.summary.timers, 6, "{mode:?}");
            assert_eq!(report.summary.orphan_ends, 1, "{mode:?}");
            // Linux: addresses 3, 4 and 5; Vista: (a, 10), (a, 20), (b, 10).
            assert_eq!(report.pattern_mix.total, 3, "{mode:?}");
            assert_eq!(report.pattern_mix.counts["other"], 2, "{mode:?}");
            assert_eq!(report.pattern_mix.counts["timeout"], 1, "{mode:?}");
            assert_eq!(report.summary.anomalous_rearms, 1, "{mode:?}");
            assert_eq!(report.provenance.len(), 1, "{mode:?}");
            let row = &report.provenance[0];
            assert_eq!((row.seconds, row.count), (0.1, 6), "{mode:?}");
            let origins: Vec<(&str, &str, u64)> = row
                .origins
                .iter()
                .map(|(o, c, n)| (o.as_str(), c.as_str(), *n))
                .collect();
            assert_eq!(
                origins,
                [
                    ("z:first-interned", "other", 3),
                    ("a:second-interned", "timeout", 3)
                ],
                "{mode:?}"
            );
        }
    }
}
