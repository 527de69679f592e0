//! The benchmark's definition, read from the repository's `BENCHMARK.json`.
//!
//! The file is compiled in, so the workload list, the metric names, units
//! and regression bounds have one source: the binary emits exactly what
//! the file declares, and `compare` applies exactly the bounds it fixes.

use std::sync::OnceLock;

use telemetry::json::{self, Value};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory).
    Lower,
    /// Larger values are better (throughput, efficiency).
    Higher,
}

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name, as emitted.
    pub name: String,
    /// Unit, as emitted.
    pub unit: String,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median the metric may worsen by before a
    /// change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in declaration order.
    pub workloads: Vec<String>,
    /// Metrics a user of the reproduction sees (untraced runs).
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of single layers (traced runs).
    pub per_layer: Vec<MetricDef>,
}

const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// The compiled-in benchmark definition.
pub fn config() -> &'static Config {
    static CONFIG: OnceLock<Config> = OnceLock::new();
    CONFIG.get_or_init(|| parse(SOURCE).expect("BENCHMARK.json is well-formed"))
}

fn parse(source: &str) -> Result<Config, String> {
    let doc = json::parse(source)?;
    let run_seconds = doc
        .get("run_seconds")
        .and_then(Value::as_f64)
        .ok_or("run_seconds missing")?;
    let workloads = array(&doc, "workloads")?
        .iter()
        .map(|w| string(w, "name"))
        .collect::<Result<_, _>>()?;
    Ok(Config {
        run_seconds,
        workloads,
        end_to_end: metrics(&doc, "end_to_end")?,
        per_layer: metrics(&doc, "per_layer")?,
    })
}

fn array<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value], String> {
    doc.get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{key} missing"))
}

fn string(v: &Value, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Value::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("{key} missing"))
}

fn metrics(doc: &Value, key: &str) -> Result<Vec<MetricDef>, String> {
    array(doc, key)?
        .iter()
        .map(|m| {
            let better = match string(m, "better")?.as_str() {
                "lower" => Better::Lower,
                "higher" => Better::Higher,
                other => return Err(format!("unknown direction {other:?}")),
            };
            Ok(MetricDef {
                name: string(m, "name")?,
                unit: string(m, "unit")?,
                better,
                bound: m.get("bound").and_then(Value::as_f64),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiled_in_definition_parses() {
        let cfg = config();
        assert_eq!(cfg.workloads.len(), 4);
        assert!(cfg.run_seconds >= 1.0);
        let setup = cfg
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is declared");
        assert_eq!(setup.better, Better::Lower);
        for m in &cfg.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= setup.bound.unwrap(), "{}", m.name);
        }
        assert!(cfg.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
