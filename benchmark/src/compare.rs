//! `benchmark compare PARENT.json CHANGE.json [PARENT.json CHANGE.json ...]`:
//! judges every (end-to-end metric, workload) pair of paired `run.json`
//! files.
//!
//! Each (parent, change) pair of files is one run of each side, made one
//! after the other; several pairs are runs made in alternating order. A
//! pair's value is each run's reported value, so the reps inside one run,
//! which ran back to back and share the host's bursts of interference, are
//! never paired with each other.
//!
//! A gain needs at least ten pairs, the change winning nine tenths of them
//! (ties count for neither), and the median of its values beating the
//! parent's by more than the quartile spread of the parent's values. A
//! regression is a median value worse than the parent's by more than the
//! metric's bound in `BENCHMARK.json`, or a workload that a change run is
//! missing or reports as incorrect. A pair within the bound is unresolved
//! when the noise is wider than the bound: the quartile spread of the
//! parent's values exceeds it (unless every change run beats every parent
//! run), or the medians of every rep behind the values differ by more.

use telemetry::json::{self, Value};

use crate::config::{config, Better, MetricDef};
use crate::stats::{median, Summary};

/// The judgement on one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// A gain by the pairs-won and spread rule.
    Improved,
    /// Worse than the parent by more than the bound, or failed.
    Regressed,
    /// Within the bound.
    Unchanged,
    /// Within the bound, but the noise is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// +1 when lower is better, -1 when higher is: `sign * (parent - change)`
/// is then positive exactly when the change is better.
fn sign(def: &MetricDef) -> f64 {
    match def.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    }
}

/// Pairs (parent's i-th run, change's i-th run) the change wins.
pub fn wins(def: &MetricDef, parent: &[f64], change: &[f64]) -> usize {
    parent
        .iter()
        .zip(change)
        .filter(|&(a, b)| sign(def) * (a - b) > 0.0)
        .count()
}

/// One side of a comparison: a metric's reported value in each run, and
/// every rep sample behind those values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Side {
    /// The value each run reported, in run order.
    pub values: Vec<f64>,
    /// The per-rep samples of all runs.
    pub samples: Vec<f64>,
}

/// Fewest pairs a gain may be claimed on.
const MIN_PAIRS: usize = 10;

/// Judges `change` against `parent` for metric `def`.
pub fn verdict(def: &MetricDef, parent: &Side, change: &Side) -> Verdict {
    let (p, c) = (Summary::of(&parent.values), Summary::of(&change.values));
    let pairs = parent.values.len().min(change.values.len());
    let won = wins(def, &parent.values, &change.values);
    if pairs >= MIN_PAIRS && won * 10 >= pairs * 9 && sign(def) * (p.median - c.median) > p.iqr() {
        return Verdict::Improved;
    }
    let bound = def.bound.unwrap_or(0.0);
    let worse = |a: f64, b: f64| a != 0.0 && sign(def) * (b - a) / a.abs() > bound;
    let wide = p.median != 0.0 && p.iqr() / p.median.abs() > bound;
    let all_better = parent
        .values
        .iter()
        .all(|&a| change.values.iter().all(|&b| sign(def) * (a - b) > 0.0));
    if worse(p.median, c.median) {
        Verdict::Regressed
    } else if (wide && !all_better) || worse(median(&parent.samples), median(&change.samples)) {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// One judged pair, ready to print.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Median of the parent's values.
    pub parent: f64,
    /// Median of the change's values; `None` when a change run is missing
    /// the workload or reports it incorrect.
    pub change: Option<f64>,
    /// Pairs the change won.
    pub wins: usize,
    /// Pairs compared.
    pub pairs: usize,
    /// The judgement.
    pub verdict: Verdict,
}

/// Compares paired `run.json` documents: `runs[i]` is (parent, change)
/// of the i-th pair. Every workload of the parent runs is judged; a
/// parent run that is missing one, or reports it incorrect, is an error.
pub fn compare(runs: &[(String, String)]) -> Result<Vec<Row>, String> {
    if runs.is_empty() {
        return Err("no runs to compare".into());
    }
    let docs: Vec<(Value, Value)> = runs
        .iter()
        .map(|(p, c)| Ok((json::parse(p)?, json::parse(c)?)))
        .collect::<Result<_, String>>()?;
    let mut names: Vec<&str> = Vec::new();
    for (p, _) in &docs {
        for (name, _) in workloads(p)? {
            if !names.contains(&name) {
                names.push(name);
            }
        }
    }
    let mut rows = Vec::new();
    for name in names {
        let mut parents = Vec::new();
        // `None` once any change run lacks a correct instance.
        let mut changes = Some(Vec::new());
        for (p, c) in &docs {
            match find(p, name)? {
                Some(w) if correct(w) => parents.push(w),
                _ => return Err(format!("a parent run has no correct {name} workload")),
            }
            match (find(c, name)?.filter(|w| correct(w)), changes.as_mut()) {
                (Some(w), Some(list)) => list.push(w),
                _ => changes = None,
            }
        }
        for def in &config().end_to_end {
            let parent = side(&parents, &def.name)?;
            let change = changes.as_deref().map(|c| side(c, &def.name)).transpose()?;
            let pairs = change.as_ref().map_or(0, |c| c.values.len());
            rows.push(Row {
                workload: name.to_owned(),
                metric: def.name.clone(),
                parent: median(&parent.values),
                change: change.as_ref().map(|c| median(&c.values)),
                wins: change
                    .as_ref()
                    .map_or(0, |c| wins(def, &parent.values, &c.values)),
                pairs,
                verdict: change
                    .as_ref()
                    .map_or(Verdict::Regressed, |c| verdict(def, &parent, c)),
            });
        }
    }
    Ok(rows)
}

fn workloads(doc: &Value) -> Result<Vec<(&str, &Value)>, String> {
    doc.get("workloads")
        .and_then(Value::as_arr)
        .ok_or("no workloads array")?
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("unnamed workload")?;
            Ok((name, w))
        })
        .collect()
}

fn find<'a>(doc: &'a Value, name: &str) -> Result<Option<&'a Value>, String> {
    Ok(workloads(doc)?
        .into_iter()
        .find_map(|(n, w)| (n == name).then_some(w)))
}

/// Whether a run reports its workload's output correct. A document
/// without the flag is taken as correct.
fn correct(workload: &Value) -> bool {
    workload.get("correct") != Some(&Value::Bool(false))
}

/// A metric's values and samples across runs of one side.
fn side(runs: &[&Value], metric: &str) -> Result<Side, String> {
    let mut side = Side::default();
    for workload in runs {
        let m = workload
            .get("metrics")
            .and_then(|m| m.get(metric))
            .ok_or_else(|| format!("metric {metric} missing"))?;
        side.values.push(
            m.get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("metric {metric} has no value"))?,
        );
        for v in m
            .get("samples")
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("metric {metric} has no samples"))?
        {
            side.samples.push(
                v.as_f64()
                    .ok_or_else(|| format!("{metric}: non-numeric sample"))?,
            );
        }
    }
    Ok(side)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(better: Better, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "s".into(),
            better,
            bound: Some(bound),
        }
    }

    fn side(values: &[f64], samples: &[f64]) -> Side {
        Side {
            values: values.to_vec(),
            samples: samples.to_vec(),
        }
    }

    #[test]
    fn clear_gain_over_ten_run_pairs_is_improved() {
        let parent: Vec<f64> = (0..10).map(|i| 2.0 + 0.01 * f64::from(i)).collect();
        let change: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        let (p, c) = (side(&parent, &parent), side(&change, &change));
        assert_eq!(verdict(&def(Better::Lower, 0.1), &p, &c), Verdict::Improved);
        // One run of each side is never enough, however many reps it holds.
        let (p1, c1) = (side(&parent[..1], &parent), side(&change[..1], &change));
        assert_eq!(
            verdict(&def(Better::Lower, 0.1), &p1, &c1),
            Verdict::Unchanged
        );
        // The same numbers read as throughput are a regression.
        assert_eq!(
            verdict(&def(Better::Higher, 0.1), &p, &c),
            Verdict::Regressed
        );
    }

    #[test]
    fn within_bound_is_unchanged_and_noisy_reps_are_unresolved() {
        let parent = side(&[1.98], &[2.0, 2.02, 1.98, 2.01, 1.99]);
        let change = side(&[1.97], &[2.05, 2.0, 2.03, 1.97, 2.04]);
        assert_eq!(
            verdict(&def(Better::Lower, 0.1), &parent, &change),
            Verdict::Unchanged
        );
        // Same best rep, but most reps of the change ran 30 % slower.
        let noisy = side(&[1.97], &[2.6, 2.7, 1.97, 2.65, 2.6]);
        assert_eq!(
            verdict(&def(Better::Lower, 0.1), &parent, &noisy),
            Verdict::Unresolved
        );
        // The parent's own runs spread 40 %, far wider than the bound.
        let runs = [1.6, 2.4, 1.7, 2.3, 2.0];
        let wide = side(&runs, &runs);
        let same = side(&[2.3, 1.6, 2.0, 2.4, 1.7], &runs);
        assert_eq!(
            verdict(&def(Better::Lower, 0.1), &wide, &same),
            Verdict::Unresolved
        );
        // ... unless every change run beats every parent run.
        let faster = side(&[1.5, 1.55, 1.5, 1.58, 1.52], &runs);
        assert_eq!(
            verdict(&def(Better::Lower, 0.1), &wide, &faster),
            Verdict::Unchanged
        );
    }

    /// A `run.json` with the given workloads, every metric at `value`;
    /// a workload named with a trailing `!` reports incorrect output.
    fn doc(workloads: &[&str], value: &str) -> String {
        let metrics: Vec<String> = config()
            .end_to_end
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {value}, \"samples\": [{value}, {value}]}}",
                    m.name
                )
            })
            .collect();
        let entries: Vec<String> = workloads
            .iter()
            .map(|w| {
                let (name, correct) = match w.strip_suffix('!') {
                    Some(name) => (name, false),
                    None => (*w, true),
                };
                format!(
                    "{{\"name\": \"{name}\", \"correct\": {correct}, \"metrics\": {{{}}}}}",
                    metrics.join(", ")
                )
            })
            .collect();
        format!("{{\"workloads\": [{}]}}", entries.join(", "))
    }

    #[test]
    fn compares_run_documents() {
        let both = doc(&["paper", "apache_scale"], "2.0");
        let rows = compare(&[(both.clone(), both.clone())]).expect("parses");
        assert_eq!(rows.len(), 2 * config().end_to_end.len());
        assert!(rows
            .iter()
            .all(|r| r.verdict == Verdict::Unchanged && r.wins == 0 && r.pairs == 1));
        // 30 % larger: a regression wherever lower is better; where higher
        // is better, one pair is too few to claim a gain.
        let larger = doc(&["paper", "apache_scale"], "2.6");
        for r in compare(&[(both.clone(), larger)]).expect("parses") {
            let lower = config()
                .end_to_end
                .iter()
                .any(|m| m.name == r.metric && m.better == Better::Lower);
            let expected = if lower {
                Verdict::Regressed
            } else {
                Verdict::Unchanged
            };
            assert_eq!(r.verdict, expected, "{}", r.metric);
        }
        assert!(compare(&[("{}".into(), "{}".into())]).is_err());
        assert!(compare(&[]).is_err());
    }

    #[test]
    fn a_workload_the_change_lost_or_got_wrong_is_regressed() {
        let parent = doc(&["paper", "apache_scale"], "2.0");
        let lost = doc(&["paper"], "2.0");
        let wrong = doc(&["paper", "apache_scale!"], "2.0");
        for change in [lost, wrong] {
            // The failure in the second pair is not hidden by the first.
            let runs = [(parent.clone(), parent.clone()), (parent.clone(), change)];
            let rows = compare(&runs).expect("parses");
            assert_eq!(rows.len(), 2 * config().end_to_end.len());
            for r in rows {
                if r.workload == "apache_scale" {
                    assert_eq!((r.verdict, r.change), (Verdict::Regressed, None));
                } else {
                    assert_eq!(r.verdict, Verdict::Unchanged);
                }
            }
        }
        // A parent run without the workload is no baseline at all.
        let runs = [
            (parent.clone(), parent.clone()),
            (doc(&["paper"], "2.0"), parent),
        ];
        assert!(compare(&runs).is_err());
    }
}
