//! JSON output: `run.json`, `trace.json`, and the one-line result.

use std::fmt::Write as _;

use telemetry::json::escape;

use crate::config::config;
use crate::measure::{Metric, RunMeasurement, TraceMeasurement};
use crate::stats::Summary;
use crate::workload::Checker;

/// Formats a float with every digit it has (`{:?}` prints the shortest
/// exact round trip); non-finite values, which no metric should produce,
/// become 0 so the document stays valid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// The declared unit of an emitted metric.
pub fn unit_of(name: &str) -> &'static str {
    let cfg = config();
    cfg.end_to_end
        .iter()
        .chain(&cfg.per_layer)
        .find(|m| m.name == name)
        .map(|m| m.unit.as_str())
        .expect("every emitted metric is declared in BENCHMARK.json")
}

/// The last line of a single-workload run: `correct`, `attempted`,
/// `failed`, and each metric's value and unit.
pub fn result_line(check: &Checker, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                escape(m.name),
                num(m.value),
                escape(unit_of(m.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        check.correct(),
        check.attempted,
        check.failed,
        body.join(", ")
    )
}

fn metric_object(m: &Metric) -> String {
    let s = Summary::of(&m.samples);
    let samples: Vec<String> = m.samples.iter().map(|&v| num(v)).collect();
    format!(
        "{}: {{\"unit\": {}, \"value\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}, \"samples\": [{}]}}",
        escape(m.name),
        escape(unit_of(m.name)),
        num(m.value),
        num(s.median),
        num(s.q1),
        num(s.q3),
        num(s.min),
        num(s.max),
        s.n,
        samples.join(", ")
    )
}

fn workload_header(name: &str, seed: u64, threads: usize, check: &Checker) -> String {
    format!(
        "\"name\": {}, \"seed\": {seed}, \"threads\": {threads}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"digest\": {}",
        escape(name),
        check.correct(),
        check.attempted,
        check.failed,
        escape(&check.reference.map_or(String::new(), |d| format!("{d:016x}")))
    )
}

/// `run.json`: every end-to-end metric of every workload run, with its
/// samples, which `benchmark compare` reads back.
pub fn run_json(runs: &[RunMeasurement]) -> String {
    let mut out = String::from("{\"workloads\": [\n");
    for (i, r) in runs.iter().enumerate() {
        let metrics: Vec<String> = r.metrics().iter().map(metric_object).collect();
        let _ = write!(
            out,
            "  {{{}, \"metrics\": {{\n    {}\n  }}}}{}\n",
            workload_header(r.workload.name(), r.seed, r.threads, &r.check),
            metrics.join(",\n    "),
            if i + 1 < runs.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

/// `trace.json`: every per-layer metric and every span of each traced
/// workload. Span `parent` indexes the same workload's span list.
pub fn trace_json(traces: &[TraceMeasurement]) -> String {
    let mut out = String::from("{\"workloads\": [\n");
    for (i, t) in traces.iter().enumerate() {
        let metrics: Vec<String> = t.metrics().iter().map(metric_object).collect();
        let spans: Vec<String> = t
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": {}, \"trace\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    escape(s.name),
                    s.trace,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_owned(), |p| p.to_string())
                )
            })
            .collect();
        let _ = write!(
            out,
            "  {{{}, \"metrics\": {{\n    {}\n  }},\n  \"spans\": [\n    {}\n  ]}}{}\n",
            workload_header(t.workload.name(), t.seed, t.threads, &t.check),
            metrics.join(",\n    "),
            spans.join(",\n    "),
            if i + 1 < traces.len() { "," } else { "" }
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use telemetry::json::parse;

    #[test]
    fn result_line_is_json_with_the_required_keys() {
        let mut check = Checker::new(Workload::Paper, 424_242);
        check.check(9, Some(1), true);
        let metrics = vec![Metric {
            name: "wall_s",
            value: 2.125,
            samples: vec![2.125],
        }];
        let doc = parse(&result_line(&check, &metrics)).expect("valid JSON");
        assert_eq!(
            doc.get("correct"),
            Some(&telemetry::json::Value::Bool(true))
        );
        assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(9));
        assert_eq!(doc.get("failed").and_then(|v| v.as_u64()), Some(0));
        let wall = doc
            .get("metrics")
            .and_then(|m| m.get("wall_s"))
            .expect("metric");
        assert_eq!(wall.get("value").and_then(|v| v.as_f64()), Some(2.125));
        assert_eq!(wall.get("unit").and_then(|v| v.as_str()), Some("s"));
    }
}
