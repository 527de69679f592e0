//! Run reports: the JSON view over both planes.
//!
//! A [`RunReport`] freezes one `repro_all` invocation: the sim-plane
//! snapshot of every experiment (plus their merged totals) and the
//! per-name statistics of the wall-clock spans captured during the run.
//! `to_json` hand-rolls real JSON (the vendored `serde_json` stand-in
//! only renders Debug output).
//!
//! Schema contract (version 3): the `sim` section is a pure function of
//! the experiment specs — CI parses two independent runs and asserts the
//! canonical forms of their `sim` sections are byte-identical. The
//! `wall` section holds only `spans`, folded from the capture buffer of
//! [`crate::chrome`], and is never compared.

use std::collections::BTreeMap;
use std::time::Duration;

use crate::attr::OriginTable;
use crate::chrome::{self, SpanStat};
use crate::json::{escape, Value};
use crate::sim::{SimCounter, SimGauge, SimHist, SimSnapshot};

/// Current run-report schema version (2 added the per-origin
/// `attribution` table to every sim body; 3 cut the wall section down to
/// the span statistics).
pub const SCHEMA_VERSION: u64 = 3;

/// The sim-plane snapshot of one experiment, labelled for the report.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentMetrics {
    /// Human-readable experiment label (os/workload/duration/seed).
    pub label: String,
    /// The per-experiment sim-plane snapshot.
    pub sim: SimSnapshot,
    /// The experiment's per-origin timer attribution.
    pub attr: OriginTable,
}

/// A frozen report for one complete run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Execution mode, e.g. `repro_all`'s `"parallel"`, `"faulted"` or
    /// `"adaptive"`.
    pub mode: String,
    /// Per-experiment virtual duration, in seconds.
    pub duration_secs: u64,
    /// Base seed of the run.
    pub seed: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Total wall time of the run, in seconds.
    pub wall_seconds: f64,
    /// One entry per experiment, in spec order.
    pub experiments: Vec<ExperimentMetrics>,
    /// All experiment snapshots merged.
    pub sim_totals: SimSnapshot,
    /// All experiment attribution tables merged by label — the paper's
    /// Table-3-style "top timer users" view of the whole run.
    pub attr_totals: OriginTable,
    /// The wall plane: per-name statistics of the span intervals
    /// captured during the run (empty unless capture was on).
    pub spans: BTreeMap<String, SpanStat>,
}

impl RunReport {
    /// Builds a report from per-experiment metrics, merging the sim
    /// totals and folding the captured span intervals.
    pub fn new(
        mode: &str,
        duration_secs: u64,
        seed: u64,
        threads: usize,
        wall: Duration,
        experiments: Vec<ExperimentMetrics>,
    ) -> Self {
        let mut sim_totals = SimSnapshot::empty();
        let mut attr_totals = OriginTable::empty();
        for exp in &experiments {
            sim_totals.merge(&exp.sim);
            attr_totals.merge(&exp.attr);
        }
        RunReport {
            mode: mode.to_string(),
            duration_secs,
            seed,
            threads,
            wall_seconds: wall.as_secs_f64(),
            experiments,
            sim_totals,
            attr_totals,
            spans: chrome::span_stats(),
        }
    }

    /// Renders the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema_version\": {SCHEMA_VERSION},\n"));
        out.push_str(&format!("  \"mode\": {},\n", escape(&self.mode)));
        out.push_str(&format!("  \"duration_secs\": {},\n", self.duration_secs));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"wall_seconds\": {:.6},\n", self.wall_seconds));
        out.push_str("  \"sim\": {\n    \"experiments\": [\n");
        for (i, exp) in self.experiments.iter().enumerate() {
            out.push_str("      {\"label\": ");
            out.push_str(&escape(&exp.label));
            out.push_str(", ");
            write_sim_body(&mut out, &exp.sim, &exp.attr);
            out.push('}');
            if i + 1 < self.experiments.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("    ],\n    \"totals\": {");
        write_sim_body(&mut out, &self.sim_totals, &self.attr_totals);
        out.push_str("}\n  },\n");
        out.push_str("  \"wall\": {\n    \"spans\": {");
        for (i, (name, stat)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                escape(name),
                stat.count,
                stat.total_ns,
                stat.min_ns,
                stat.max_ns
            ));
        }
        out.push_str("}\n  }\n}\n");
        out
    }
}

fn write_sim_body(out: &mut String, sim: &SimSnapshot, attr: &OriginTable) {
    out.push_str("\"counters\": {");
    for (i, c) in SimCounter::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", escape(c.name()), sim.counter(*c)));
    }
    out.push_str("}, \"gauges\": {");
    for (i, g) in SimGauge::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {}", escape(g.name()), sim.gauge(*g)));
    }
    out.push_str("}, \"hists\": {");
    for (i, h) in SimHist::ALL.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        sim.hist(*h).write_json(h.name(), out);
    }
    out.push_str("}, \"attribution\": ");
    attr.write_json(out);
}

/// Validates a parsed run report against the current schema version.
pub fn validate_value(v: &Value) -> Result<(), String> {
    let version = v
        .get("schema_version")
        .and_then(Value::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!("unsupported schema_version {version}"));
    }
    v.get("mode")
        .and_then(Value::as_str)
        .ok_or("missing mode")?;
    for key in ["duration_secs", "seed"] {
        v.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing {key}"))?;
    }
    v.get("threads")
        .and_then(Value::as_u64)
        .ok_or("missing threads")?;
    v.get("wall_seconds")
        .and_then(Value::as_f64)
        .ok_or("missing wall_seconds")?;
    let sim = v.get("sim").ok_or("missing sim section")?;
    let experiments = sim
        .get("experiments")
        .and_then(Value::as_arr)
        .ok_or("missing sim.experiments")?;
    for (i, exp) in experiments.iter().enumerate() {
        exp.get("label")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("experiment {i} missing label"))?;
        validate_sim_body(exp).map_err(|e| format!("experiment {i}: {e}"))?;
    }
    let totals = sim.get("totals").ok_or("missing sim.totals")?;
    validate_sim_body(totals).map_err(|e| format!("sim.totals: {e}"))?;
    let spans = v
        .get("wall")
        .ok_or("missing wall section")?
        .get("spans")
        .and_then(Value::as_obj)
        .ok_or("missing wall.spans")?;
    for (name, stat) in spans {
        for key in ["count", "total_ns", "min_ns", "max_ns"] {
            stat.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("wall span {name:?} missing {key}"))?;
        }
    }
    Ok(())
}

fn validate_sim_body(v: &Value) -> Result<(), String> {
    let counters = v
        .get("counters")
        .and_then(Value::as_obj)
        .ok_or("missing counters")?;
    for c in SimCounter::ALL {
        if !counters
            .iter()
            .any(|(k, v)| k == c.name() && v.as_u64().is_some())
        {
            return Err(format!("missing or non-integer counter {}", c.name()));
        }
    }
    let gauges = v
        .get("gauges")
        .and_then(Value::as_obj)
        .ok_or("missing gauges")?;
    for g in SimGauge::ALL {
        if !gauges
            .iter()
            .any(|(k, v)| k == g.name() && v.as_u64().is_some())
        {
            return Err(format!("missing or non-integer gauge {}", g.name()));
        }
    }
    let hists = v
        .get("hists")
        .and_then(Value::as_obj)
        .ok_or("missing hists")?;
    for h in SimHist::ALL {
        let hist = hists
            .iter()
            .find(|(k, _)| k == h.name())
            .map(|(_, v)| v)
            .ok_or_else(|| format!("missing hist {}", h.name()))?;
        validate_hist(hist).map_err(|e| format!("hist {}: {e}", h.name()))?;
    }
    let attribution = v
        .get("attribution")
        .and_then(Value::as_obj)
        .ok_or("missing attribution")?;
    for (label, row) in attribution {
        for key in ["inits", "sets", "cancels", "expirations"] {
            row.get(key)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("attribution {label:?} missing {key}"))?;
        }
        for key in ["timeout_ns", "slack_ns"] {
            let hist = row
                .get(key)
                .ok_or_else(|| format!("attribution {label:?} missing {key}"))?;
            validate_hist(hist).map_err(|e| format!("attribution {label:?} {key}: {e}"))?;
        }
    }
    Ok(())
}

fn validate_hist(hist: &Value) -> Result<(), String> {
    for key in ["count", "sum"] {
        hist.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing {key}"))?;
    }
    hist.get("buckets")
        .and_then(Value::as_obj)
        .ok_or("missing buckets")?;
    Ok(())
}

/// The canonical form of a report's `sim` section — the byte string two
/// deterministic runs must agree on.
pub fn sim_section_canonical(v: &Value) -> Result<String, String> {
    Ok(v.get("sim").ok_or("missing sim section")?.canonical())
}

/// Formats the one-line per-stage summary `repro_all` prints to stderr:
/// `[telemetry] stage=<stage> k=v k=v ...`.
pub fn stage_summary_line(stage: &str, fields: &[(&str, String)]) -> String {
    let mut line = format!("[telemetry] stage={stage}");
    for (key, value) in fields {
        line.push_str(&format!(" {key}={value}"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::sim::{self, SimCounter, SimHist};
    use std::time::{Duration, Instant};

    fn sample_report() -> RunReport {
        let on = crate::switch_lock::needs_recording();
        let ((), snap) = sim::scoped(|| {
            sim::add(SimCounter::WheelSchedules, 12);
            sim::add(SimCounter::TraceRecords, 100);
            sim::observe(SimHist::NetRttMicros, 130_000);
        });
        drop(on);
        let mut row = crate::attr::OriginRow {
            label: "tcp:rto".into(),
            sets: 12,
            expirations: 3,
            ..Default::default()
        };
        row.timeout_ns.record(200_000_000);
        RunReport::new(
            "serial",
            30,
            42,
            1,
            Duration::from_millis(1500),
            vec![ExperimentMetrics {
                label: "linux idle 30s seed42".into(),
                sim: snap,
                attr: crate::attr::OriginTable { rows: vec![row] },
            }],
        )
    }

    #[test]
    fn json_roundtrips_and_validates() {
        let report = sample_report();
        let text = report.to_json();
        let parsed = json::parse(&text).expect("report JSON must parse");
        validate_value(&parsed).expect("report must match schema");
        assert_eq!(parsed.get("mode").and_then(Value::as_str), Some("serial"));
        let totals = parsed.get("sim").unwrap().get("totals").unwrap();
        let counters = totals.get("counters").unwrap();
        assert_eq!(
            counters
                .get("wheel_schedules_total")
                .and_then(Value::as_u64),
            Some(12)
        );
    }

    #[test]
    fn sim_canonical_ignores_wall_plane() {
        let report = sample_report();
        let a = json::parse(&report.to_json()).unwrap();
        let mut other = report.clone();
        other.wall_seconds = 999.0;
        other.threads = 16;
        let stat = SpanStat {
            count: 1,
            total_ns: 5,
            min_ns: 5,
            max_ns: 5,
        };
        other.spans.insert("stage.workload".into(), stat);
        let b = json::parse(&other.to_json()).unwrap();
        assert_eq!(
            sim_section_canonical(&a).unwrap(),
            sim_section_canonical(&b).unwrap()
        );
    }

    #[test]
    fn wall_spans_fold_the_captured_intervals() {
        let _capture = chrome::capture_lock();
        chrome::reset();
        chrome::set_capture(true);
        let t0 = Instant::now();
        let ns = Duration::from_nanos;
        chrome::record_span("test.fold", t0, t0 + ns(300));
        chrome::record_span("test.fold", t0 + ns(1_000), t0 + ns(1_100));
        chrome::record_span("test.fold", t0 + ns(2_000), t0 + ns(2_200));
        // A zero-length interval is widened to 1 ns at capture.
        chrome::record_span("test.instant", t0, t0);
        chrome::set_capture(false);
        let report = sample_report();
        chrome::reset();
        let parsed = json::parse(&report.to_json()).unwrap();
        validate_value(&parsed).unwrap();
        let wall = parsed.get("wall").and_then(Value::as_obj).unwrap();
        assert_eq!(wall.len(), 1, "wall holds only spans");
        let stat = |name: &str, key: &str| {
            parsed
                .get("wall")
                .and_then(|w| w.get("spans"))
                .and_then(|s| s.get(name))
                .and_then(|s| s.get(key))
                .and_then(Value::as_u64)
                .unwrap()
        };
        assert_eq!(stat("test.fold", "count"), 3);
        assert_eq!(stat("test.fold", "total_ns"), 600);
        assert_eq!(stat("test.fold", "min_ns"), 100);
        assert_eq!(stat("test.fold", "max_ns"), 300);
        for key in ["count", "total_ns", "min_ns", "max_ns"] {
            assert_eq!(stat("test.instant", key), 1, "{key}");
        }
    }

    #[test]
    fn validation_rejects_schema_2_and_a_wall_without_spans() {
        let text = sample_report().to_json();
        let schema_2 = text.replace("\"schema_version\": 3", "\"schema_version\": 2");
        assert!(validate_value(&json::parse(&schema_2).unwrap()).is_err());
        let no_spans = text.replace("\"spans\"", "\"counters\"");
        assert!(validate_value(&json::parse(&no_spans).unwrap()).is_err());
    }

    #[test]
    fn attribution_rides_in_sim_totals() {
        let report = sample_report();
        let parsed = json::parse(&report.to_json()).unwrap();
        let attr = parsed
            .get("sim")
            .and_then(|s| s.get("totals"))
            .and_then(|t| t.get("attribution"))
            .expect("totals carry attribution");
        assert_eq!(
            attr.get("tcp:rto")
                .and_then(|r| r.get("sets"))
                .and_then(Value::as_u64),
            Some(12)
        );
    }

    #[test]
    fn validation_rejects_missing_attribution() {
        let report = sample_report();
        let text = report.to_json().replace("\"attribution\"", "\"attrib\"");
        let parsed = json::parse(&text).unwrap();
        assert!(validate_value(&parsed).is_err());
    }

    #[test]
    fn validation_rejects_missing_counter() {
        let report = sample_report();
        let text = report.to_json().replace("wheel_schedules_total", "bogus");
        let parsed = json::parse(&text).unwrap();
        assert!(validate_value(&parsed).is_err());
    }

    #[test]
    fn summary_line_format() {
        let line = stage_summary_line(
            "assemble",
            &[
                ("artifacts", "14".to_string()),
                ("wall_ms", "3.2".to_string()),
            ],
        );
        assert_eq!(line, "[telemetry] stage=assemble artifacts=14 wall_ms=3.2");
    }
}
