//! Timeout provenance: which subsystem sets which value (Table 3) and
//! what each origin did with its timers (§5's provenance proposal), over
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
//! cluster, when episodes cluster by origin and process (Vista, §3.3),
//! one pattern cluster per pid and, while [`telemetry::enabled`], its
//! attribution row: init, set, cancel and expiry counts and the log₂
//! histograms of requested timeouts and of set-vs-fired slack. The
//! attribution is a pure function of the event stream, labelled through
//! the (deterministic) trace string table, so the
//! [`OriginTable`] rides inside [`Report`](crate::Report) byte-identical
//! across every execution mode.

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;
use simtime::SimDuration;
use telemetry::{OriginRow, OriginTable};
use trace::{Event, EventKind, OriginId, Pid};

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
    /// Every event of the origin counted while telemetry records, as its
    /// attribution row; labelled when the table is built.
    attribution: OriginRow,
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

    /// Counts one of this origin's events into its attribution row.
    pub(crate) fn attribute(&mut self, event: &Event) {
        let row = &mut self.attribution;
        match event.kind {
            EventKind::Init => row.inits += 1,
            EventKind::Set => {
                row.sets += 1;
                if let Some(timeout) = event.timeout {
                    row.timeout_ns.record(timeout.as_nanos());
                }
            }
            EventKind::Cancel | EventKind::WaitSatisfied => row.cancels += 1,
            EventKind::Expire | EventKind::WaitTimedOut => {
                row.expirations += 1;
                if let Some(expires) = event.expires {
                    // Saturating: a perturbed-clock fault can stamp delivery
                    // before the armed expiry; that is slack 0, not underflow.
                    let slack = event.ts.duration_since(expires);
                    row.slack_ns.record(slack.as_nanos());
                }
            }
        }
    }

    /// Whether any of this origin's events was counted into its
    /// attribution row: each one counts toward exactly one of the four
    /// counts.
    fn attributed(&self) -> bool {
        let row = &self.attribution;
        row.inits + row.sets + row.cancels + row.expirations > 0
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

    /// The attribution table: one row per origin with a counted event,
    /// labelled by `resolve`, in canonical order. The origins are put in
    /// that order before their rows are moved out, so no kilobyte-sized
    /// row is moved by the sort.
    pub(crate) fn attribution<'a>(mut self, resolve: impl Fn(OriginId) -> &'a str) -> OriginTable {
        let mut order: Vec<(&str, usize)> = (0..self.slots.len())
            .filter(|&origin| self.slots[origin].attributed())
            .map(|origin| (resolve(origin as OriginId), origin))
            .collect();
        order.sort_by_key(|&(label, origin)| {
            OriginTable::row_key(self.slots[origin].attribution.sets, label)
        });
        OriginTable {
            rows: order
                .into_iter()
                .map(|(label, origin)| OriginRow {
                    label: label.to_owned(),
                    ..std::mem::take(&mut self.slots[origin].attribution)
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Outcome;
    use simtime::SimInstant;
    use trace::{Space, StringTable};

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

    /// A table whose attribution rows counted `events`.
    fn attribution_of(events: &[Event]) -> Origins {
        let mut t = Origins::default();
        for e in events {
            t.slot(e.origin).attribute(e);
        }
        t
    }

    fn set(at: u64, origin: OriginId, timeout_ms: u64) -> Event {
        let ts = SimInstant::from_nanos(at);
        Event::new(ts, EventKind::Set, 0x100, origin)
            .with_timeout(SimDuration::from_millis(timeout_ms))
            .with_expires(ts + SimDuration::from_millis(timeout_ms))
            .with_task(10, 10, Space::Kernel)
    }

    #[test]
    fn counts_and_histograms_fold_per_origin() {
        let mut strings = StringTable::new();
        let rto = strings.intern("tcp:rto");
        let wdt = strings.intern("app:watchdog");

        // rto fires 1 ms late; watchdog is cancelled.
        let armed = SimInstant::from_nanos(0) + SimDuration::from_millis(200);
        let t = attribution_of(&[
            set(0, rto, 200),
            set(1_000, wdt, 30_000),
            Event::new(
                armed + SimDuration::from_millis(1),
                EventKind::Expire,
                0x100,
                rto,
            )
            .with_expires(armed),
            Event::new(SimInstant::from_nanos(5_000), EventKind::Cancel, 0x100, wdt),
        ]);

        let table = t.attribution(|o| strings.resolve(o));
        assert_eq!(table.rows.len(), 2);
        // Tied set counts: label order breaks the tie.
        assert_eq!(table.rows[0].label, "app:watchdog");
        assert_eq!(table.rows[0].cancels, 1);
        assert_eq!(table.rows[1].label, "tcp:rto");
        assert_eq!(table.rows[1].expirations, 1);
        assert_eq!(table.rows[1].slack_ns.count(), 1);
        assert_eq!(table.rows[1].slack_ns.sum(), 1_000_000);
        assert_eq!(table.rows[1].timeout_ns.sum(), 200_000_000);
    }

    #[test]
    fn wait_kinds_map_to_cancel_and_expire() {
        let mut strings = StringTable::new();
        let o = strings.intern("vista:wait");
        let ts = SimInstant::from_nanos(10);
        let t = attribution_of(&[
            Event::new(ts, EventKind::WaitSatisfied, 1, o),
            Event::new(ts, EventKind::WaitTimedOut, 1, o).with_expires(ts),
        ]);
        let table = t.attribution(|o| strings.resolve(o));
        assert_eq!(table.rows[0].cancels, 1);
        assert_eq!(table.rows[0].expirations, 1);
        assert_eq!(table.rows[0].slack_ns.count(), 1);
    }
}
