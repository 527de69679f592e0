//! Timeout provenance: which subsystem sets which value (Table 3), over
//! the analysis fold's one table of per-origin state.
//!
//! "In Linux we see a high correlation between timeout values and the
//! static addresses of timer structures. This allows us to create Table 3,
//! which shows a detailed list of the origins of these frequent timeouts
//! within the kernel" (§4.2). Here the correlation runs through interned
//! call-site labels, which is exactly what the authors recovered from
//! stack traces.
//!
//! The table is indexed by [`OriginId`], a dense string-table index. An
//! origin's entry holds its 0.1 ms value counts, its Table 3 pattern
//! cluster and, when episodes cluster by origin and process (Vista,
//! §3.3), one pattern cluster per pid.

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;
use simtime::SimDuration;
use trace::{OriginId, Pid};

use crate::classify::Classifier;
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

/// One origin's entry in the table.
#[derive(Debug, Default)]
pub(crate) struct OriginSlot {
    /// Closed episodes with a timeout, per 0.1 ms value bucket.
    values: FoldMap<u64, u64>,
    /// Every episode the origin set, as one cluster: its Table 3 class.
    cluster: Classifier,
    /// The origin's pattern clusters per process under
    /// [`ClusterMode::ByOriginPid`](crate::ClusterMode::ByOriginPid);
    /// empty otherwise.
    by_pid: FoldMap<Pid, Classifier>,
}

impl OriginSlot {
    /// The pattern cluster of this origin's episodes in process `pid`.
    pub(crate) fn pid_cluster(&mut self, pid: Pid) -> &mut Classifier {
        self.by_pid.entry(pid).or_default()
    }

    /// Feeds one completed episode into the value counts and the Table 3
    /// cluster.
    pub(crate) fn push(&mut self, sample: &Sample, tolerance: SimDuration) {
        if let Some(timeout) = sample.timeout {
            *self.values.entry(bucket(timeout)).or_insert(0) += 1;
        }
        self.cluster.push(sample, tolerance);
    }
}

/// The per-origin table.
#[derive(Debug, Default)]
pub(crate) struct Origins {
    slots: Vec<OriginSlot>,
}

impl Origins {
    /// The entry of `origin`, created empty on first use.
    pub(crate) fn slot(&mut self, origin: OriginId) -> &mut OriginSlot {
        let idx = origin as usize;
        if idx >= self.slots.len() {
            self.slots.resize_with(idx + 1, OriginSlot::default);
        }
        &mut self.slots[idx]
    }

    /// Every (origin, pid) pattern cluster, in no particular order.
    pub(crate) fn pid_clusters(&self) -> impl Iterator<Item = &Classifier> {
        self.slots.iter().flat_map(|slot| slot.by_pid.values())
    }

    /// Builds Table 3: every value with at least `min_percent` of all
    /// timed episodes, with up to `max_origins` origins per value, each
    /// labelled by `resolve` and classified by its Table 3 cluster.
    pub(crate) fn rows(
        &self,
        min_percent: f64,
        max_origins: usize,
        resolve: impl Fn(OriginId) -> String,
    ) -> Vec<ProvenanceRow> {
        // Per-bucket totals first: only the few buckets that pass the rule
        // collect their origins, not every value any origin set.
        let mut totals: FoldMap<u64, u64> = FoldMap::default();
        for slot in &self.slots {
            for (&bucket, &count) in &slot.values {
                *totals.entry(bucket).or_insert(0) += count;
            }
        }
        let total: u64 = totals.values().sum();
        if total == 0 {
            return Vec::new();
        }
        let mut by_value: FoldMap<u64, (u64, Vec<(OriginId, u64)>)> = totals
            .into_iter()
            .filter(|&(_, count)| 100.0 * count as f64 / total as f64 >= min_percent)
            .map(|(bucket, count)| (bucket, (count, Vec::new())))
            .collect();
        for (origin, slot) in self.slots.iter().enumerate() {
            for (bucket, &count) in &slot.values {
                if let Some((_, origins)) = by_value.get_mut(bucket) {
                    origins.push((origin as OriginId, count));
                }
            }
        }
        let mut rows: Vec<ProvenanceRow> = by_value
            .into_iter()
            .map(|(bucket, (count, mut origins))| {
                // Ties broken by origin id for deterministic output.
                origins.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                origins.truncate(max_origins);
                ProvenanceRow {
                    seconds: bucket_seconds(bucket),
                    count,
                    origins: origins
                        .into_iter()
                        .map(|(o, c)| {
                            let class = self.slots[o as usize].cluster.class();
                            (resolve(o), class.label().to_owned(), c)
                        })
                        .collect(),
                }
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
    use simtime::SimInstant;

    fn sample(origin: OriginId, secs: f64) -> Sample {
        Sample {
            origin,
            pid: 0,
            set_ts: SimInstant::BOOT,
            end_ts: SimInstant::BOOT + SimDuration::from_secs(1),
            timeout: Some(SimDuration::from_secs_f64(secs)),
            outcome: Outcome::Expired,
        }
    }

    /// A table fed `samples` in order.
    fn table(samples: impl IntoIterator<Item = Sample>) -> Origins {
        let mut t = Origins::default();
        for s in samples {
            t.slot(s.origin).push(&s, SimDuration::from_millis(2));
        }
        t
    }

    #[test]
    fn groups_origins_under_values() {
        // writeback and pkt_sched at 5 s, IDE at 30 s.
        let t = table(
            (0..50)
                .flat_map(|_| [sample(1, 5.0), sample(2, 5.0)])
                .chain((0..10).map(|_| sample(3, 30.0))),
        );
        let rows = t.rows(2.0, 4, |o| format!("origin{o}"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].seconds, 5.0);
        assert_eq!(rows[0].origins.len(), 2);
        assert_eq!(rows[1].seconds, 30.0);
        assert_eq!(rows[1].origins[0].0, "origin3");
        // Expiries only, none re-armed after the previous end: delay.
        assert_eq!(rows[1].origins[0].1, "delay");
    }

    #[test]
    fn respects_min_percent() {
        let t = table((0..99).map(|_| sample(1, 1.0)).chain([sample(2, 9.0)])); // 1 % < 2 %.
        let rows = t.rows(2.0, 4, |o| o.to_string());
        assert_eq!(rows.len(), 1);
    }
}
