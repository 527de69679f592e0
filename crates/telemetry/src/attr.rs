//! Per-origin timer attribution tables — the paper's "who set this
//! timer" story (§5's provenance-tracking proposal, Table 3's
//! per-subsystem breakdown) as a first-class sim-plane structure.
//!
//! An [`OriginTable`] is a label-resolved, deterministic summary of every
//! timer set/cancel/expiry an experiment performed, folded per origin:
//! counts, the log₂ histogram of requested timeout values, and the log₂
//! histogram of set-vs-fired slack (how far past its armed expiry a timer
//! actually fired). The fold itself lives in the analysis crate's
//! per-origin table (`crates/analysis/src/provenance.rs`) — this module
//! only defines the table the report layer renders, so the telemetry
//! crate stays dependency-free.
//!
//! Tables are a pure function of the event stream: rows are sorted on
//! `(sets desc, label asc)`, label resolution goes through the trace
//! string table (itself deterministic), and merging two tables is a
//! label-keyed fold. That is what lets the run report place attribution
//! inside the byte-compared `sim` section.

use std::cmp::Reverse;

use crate::hist::LogHistogram;
use crate::json::escape;

/// Attribution of one origin's timer activity.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OriginRow {
    /// Resolved origin label (e.g. `tcp:retransmit`, `kernel:workqueue_1s`).
    pub label: String,
    /// Timers initialised under this origin.
    pub inits: u64,
    /// Set (arm or re-arm) operations.
    pub sets: u64,
    /// Cancels, including waits satisfied before their timeout.
    pub cancels: u64,
    /// Expirations, including waits that timed out.
    pub expirations: u64,
    /// Log₂ histogram of requested timeout values, in nanoseconds.
    pub timeout_ns: LogHistogram,
    /// Log₂ histogram of set-vs-fired slack (delivery minus armed
    /// expiry), in nanoseconds.
    pub slack_ns: LogHistogram,
}

impl OriginRow {
    /// Folds another row (same origin) into this one.
    pub fn merge(&mut self, other: &OriginRow) {
        self.inits += other.inits;
        self.sets += other.sets;
        self.cancels += other.cancels;
        self.expirations += other.expirations;
        self.timeout_ns.merge(&other.timeout_ns);
        self.slack_ns.merge(&other.slack_ns);
    }
}

/// The per-origin attribution of one experiment (or a merged run).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OriginTable {
    /// Rows in canonical order: sets descending, then label ascending.
    pub rows: Vec<OriginRow>,
}

impl OriginTable {
    /// An empty table.
    pub const fn empty() -> Self {
        OriginTable { rows: Vec::new() }
    }

    /// The canonical row order's sort key: sets descending, then label
    /// ascending.
    pub fn row_key(sets: u64, label: &str) -> (Reverse<u64>, &str) {
        (Reverse(sets), label)
    }

    /// Restores the canonical row order after construction or merging.
    pub fn sort(&mut self) {
        self.rows
            .sort_by(|a, b| Self::row_key(a.sets, &a.label).cmp(&Self::row_key(b.sets, &b.label)));
    }

    /// Folds another table into this one, keyed by label, keeping the
    /// canonical order.
    pub fn merge(&mut self, other: &OriginTable) {
        for theirs in &other.rows {
            match self.rows.iter_mut().find(|r| r.label == theirs.label) {
                Some(mine) => mine.merge(theirs),
                None => self.rows.push(theirs.clone()),
            }
        }
        self.sort();
    }

    /// Total set operations across every origin.
    pub fn total_sets(&self) -> u64 {
        self.rows.iter().map(|r| r.sets).sum()
    }

    /// Renders the table as a JSON object (`label` → row) appended to
    /// `out` — the shape `write_sim_body` embeds in the run report.
    pub fn write_json(&self, out: &mut String) {
        out.push('{');
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{}: {{\"inits\": {}, \"sets\": {}, \"cancels\": {}, \"expirations\": {}, ",
                escape(&row.label),
                row.inits,
                row.sets,
                row.cancels,
                row.expirations
            ));
            row.timeout_ns.write_json("timeout_ns", out);
            out.push_str(", ");
            row.slack_ns.write_json("slack_ns", out);
            out.push('}');
        }
        out.push('}');
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(label: &str, sets: u64) -> OriginRow {
        let mut r = OriginRow {
            label: label.to_string(),
            sets,
            expirations: sets / 2,
            ..OriginRow::default()
        };
        r.timeout_ns.record(5_000_000);
        r
    }

    #[test]
    fn merge_keys_by_label_and_keeps_order() {
        let mut a = OriginTable {
            rows: vec![row("tcp:rto", 10), row("mm:writeback", 4)],
        };
        let b = OriginTable {
            rows: vec![row("mm:writeback", 20), row("net:arp", 1)],
        };
        a.merge(&b);
        assert_eq!(a.rows.len(), 3);
        assert_eq!(a.rows[0].label, "mm:writeback");
        assert_eq!(a.rows[0].sets, 24);
        assert_eq!(a.rows[0].timeout_ns.count(), 2);
        assert_eq!(a.rows[1].label, "tcp:rto");
        assert_eq!(a.rows[2].label, "net:arp");
        assert_eq!(a.total_sets(), 35);
    }

    #[test]
    fn ties_break_on_label() {
        let mut t = OriginTable {
            rows: vec![row("b", 5), row("a", 5), row("c", 9)],
        };
        t.sort();
        let labels: Vec<&str> = t.rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, ["c", "a", "b"]);
    }

    #[test]
    fn json_shape_is_parseable() {
        let t = OriginTable {
            rows: vec![row("tcp:rto", 3)],
        };
        let mut out = String::new();
        t.write_json(&mut out);
        let v = crate::json::parse(&out).expect("attribution JSON parses");
        let row = v.get("tcp:rto").expect("row present");
        assert_eq!(
            row.get("sets").and_then(crate::json::Value::as_u64),
            Some(3)
        );
        assert!(row.get("timeout_ns").and_then(|h| h.get("count")).is_some());
    }
}
