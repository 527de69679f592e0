//! Timeout provenance: which subsystem sets which value (Table 3).
//!
//! "In Linux we see a high correlation between timeout values and the
//! static addresses of timer structures. This allows us to create Table 3,
//! which shows a detailed list of the origins of these frequent timeouts
//! within the kernel" (§4.2). Here the correlation runs through interned
//! call-site labels, which is exactly what the authors recovered from
//! stack traces.

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;
use trace::OriginId;

use crate::classify::PatternClass;
use crate::lifecycle::Sample;
use crate::values::{bucket, bucket_seconds};

/// One row of the provenance table: a frequent value and its origins.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProvenanceRow {
    /// The timeout value, seconds.
    pub seconds: f64,
    /// Total sets with this value.
    pub count: u64,
    /// The origins setting it: (label, pattern class label, sets).
    pub origins: Vec<(String, String, u64)>,
}

/// Streaming provenance accumulation.
#[derive(Debug, Default)]
pub struct ProvenanceTracker {
    counts: FoldMap<(OriginId, u64), u64>,
    total: u64,
}

impl ProvenanceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one completed episode.
    pub fn push(&mut self, sample: &Sample) {
        let Some(timeout) = sample.timeout else {
            return;
        };
        *self
            .counts
            .entry((sample.origin, bucket(timeout)))
            .or_insert(0) += 1;
        self.total += 1;
    }

    /// Builds the table: every value with at least `min_percent` of all
    /// episodes, with up to `max_origins` origins per value.
    ///
    /// `resolve` maps an origin id to its label; `class_of` reports the
    /// origin's majority pattern class.
    pub fn rows(
        &self,
        min_percent: f64,
        max_origins: usize,
        resolve: impl Fn(OriginId) -> String,
        class_of: impl Fn(OriginId) -> PatternClass,
    ) -> Vec<ProvenanceRow> {
        if self.total == 0 {
            return Vec::new();
        }
        // Regroup by value bucket.
        let mut by_value: FoldMap<u64, Vec<(OriginId, u64)>> = FoldMap::default();
        for (&(origin, bucket), &count) in &self.counts {
            by_value.entry(bucket).or_default().push((origin, count));
        }
        let mut rows: Vec<ProvenanceRow> = by_value
            .into_iter()
            .filter_map(|(bucket, mut origins)| {
                let count: u64 = origins.iter().map(|&(_, c)| c).sum();
                let percent = 100.0 * count as f64 / self.total as f64;
                if percent < min_percent {
                    return None;
                }
                // Ties broken by origin id for deterministic output.
                origins.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                origins.truncate(max_origins);
                Some(ProvenanceRow {
                    seconds: bucket_seconds(bucket),
                    count,
                    origins: origins
                        .into_iter()
                        .map(|(o, c)| (resolve(o), class_of(o).label().to_owned(), c))
                        .collect(),
                })
            })
            .collect();
        rows.sort_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite"));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Outcome;
    use simtime::{SimDuration, SimInstant};
    use trace::Space;

    fn sample(origin: OriginId, secs: f64) -> Sample {
        Sample {
            addr: 1,
            origin,
            pid: 0,
            tid: 0,
            space: Space::Kernel,
            set_ts: SimInstant::BOOT,
            end_ts: SimInstant::BOOT + SimDuration::from_secs(1),
            timeout: Some(SimDuration::from_secs_f64(secs)),
            outcome: Outcome::Expired,
            countdown_flag: false,
        }
    }

    #[test]
    fn groups_origins_under_values() {
        let mut p = ProvenanceTracker::new();
        for _ in 0..50 {
            p.push(&sample(1, 5.0)); // writeback.
            p.push(&sample(2, 5.0)); // pkt_sched.
        }
        for _ in 0..10 {
            p.push(&sample(3, 30.0)); // IDE.
        }
        let rows = p.rows(2.0, 4, |o| format!("origin{o}"), |_| PatternClass::Periodic);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].seconds, 5.0);
        assert_eq!(rows[0].origins.len(), 2);
        assert_eq!(rows[1].seconds, 30.0);
        assert_eq!(rows[1].origins[0].0, "origin3");
    }

    #[test]
    fn respects_min_percent() {
        let mut p = ProvenanceTracker::new();
        for _ in 0..99 {
            p.push(&sample(1, 1.0));
        }
        p.push(&sample(2, 9.0)); // 1 % < 2 %.
        let rows = p.rows(2.0, 4, |o| o.to_string(), |_| PatternClass::Other);
        assert_eq!(rows.len(), 1);
    }
}
