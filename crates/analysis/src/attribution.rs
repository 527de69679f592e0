//! Per-origin timer attribution — the fold behind the paper's §5
//! provenance-tracking proposal.
//!
//! [`AttributionTracker`] folds every timer event into per-origin
//! accumulators: init/set/cancel/expiry counts, the log₂ histogram of
//! requested timeout values, and the log₂ histogram of set-vs-fired
//! slack (delivery instant minus armed expiry — both carried on the
//! expiry event itself, so no per-timer state is needed). The fold is a
//! pure function of the event stream: accumulators sit in a `Vec`
//! indexed by [`OriginId`](trace::OriginId), and
//! [`finish`](AttributionTracker::finish) resolves labels through the
//! (deterministic) trace string table into a
//! [`telemetry::OriginTable`] in canonical row order. That is what lets
//! the table ride inside [`Report`](crate::Report) — byte-identical
//! across serial, parallel, cached-replay and every queue backend.
//!
//! Recording is gated on [`telemetry::enabled`], making the tracker part
//! of the telemetry plane's measured overhead: the 10 % budget smoke test
//! compares enabled-vs-disabled runs, and this fold is on the enabled
//! side of that line. `bench_all`'s `attribution_fold` row times it alone.

use telemetry::{LogHistogram, OriginRow, OriginTable};
use trace::{Event, EventKind, StringTable};

/// Per-origin accumulator (label-unresolved form of a row).
#[derive(Debug, Clone, Default)]
struct OriginAcc {
    inits: u64,
    sets: u64,
    cancels: u64,
    expirations: u64,
    timeout_ns: LogHistogram,
    slack_ns: LogHistogram,
}

/// The streaming per-origin attribution fold.
///
/// Origin ids are dense string-table indices (a trace interns tens of
/// them), so the per-event fold indexes a flat vector instead of
/// searching a map — this sits on every analyzed event, inside the
/// telemetry overhead budget.
#[derive(Debug, Clone, Default)]
pub struct AttributionTracker {
    per_origin: Vec<Option<OriginAcc>>,
}

impl AttributionTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    fn fold(&mut self, event: &Event) {
        let idx = event.origin as usize;
        if idx >= self.per_origin.len() {
            self.per_origin.resize_with(idx + 1, || None);
        }
        let acc = self.per_origin[idx].get_or_insert_with(OriginAcc::default);
        match event.kind {
            EventKind::Init => acc.inits += 1,
            EventKind::Set => {
                acc.sets += 1;
                if let Some(timeout) = event.timeout {
                    acc.timeout_ns.record(timeout.as_nanos());
                }
            }
            EventKind::Cancel | EventKind::WaitSatisfied => acc.cancels += 1,
            EventKind::Expire | EventKind::WaitTimedOut => {
                acc.expirations += 1;
                if let Some(expires) = event.expires {
                    // Saturating: a perturbed-clock fault can stamp delivery
                    // before the armed expiry; that is slack 0, not underflow.
                    let slack = event.ts.duration_since(expires);
                    acc.slack_ns.record(slack.as_nanos());
                }
            }
        }
    }

    /// Feeds a whole chunk (chunk boundaries carry no semantics).
    pub fn push_chunk(&mut self, chunk: &[Event]) {
        if !telemetry::enabled() {
            return;
        }
        for event in chunk {
            self.fold(event);
        }
    }

    /// Distinct origins seen so far.
    pub fn origin_count(&self) -> usize {
        self.per_origin.iter().flatten().count()
    }

    /// Resolves labels and freezes the canonical [`OriginTable`]. The
    /// origins are put in canonical order before their rows are built,
    /// so no kilobyte-sized row is moved by the sort.
    pub fn finish(&self, strings: &StringTable) -> OriginTable {
        let mut seen: Vec<(&str, &OriginAcc)> = self
            .per_origin
            .iter()
            .enumerate()
            .filter_map(|(origin, acc)| Some((strings.resolve(origin as u32), acc.as_ref()?)))
            .collect();
        seen.sort_by_key(|&(label, acc)| OriginTable::row_key(acc.sets, label));
        OriginTable {
            rows: seen
                .into_iter()
                .map(|(label, acc)| OriginRow {
                    label: label.to_owned(),
                    inits: acc.inits,
                    sets: acc.sets,
                    cancels: acc.cancels,
                    expirations: acc.expirations,
                    timeout_ns: acc.timeout_ns,
                    slack_ns: acc.slack_ns,
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{SimDuration, SimInstant};
    use trace::{EventKind, OriginId, Space, TraceLog};

    fn set(at: u64, origin: OriginId, timeout_ms: u64) -> Event {
        let ts = SimInstant::from_nanos(at);
        Event::new(ts, EventKind::Set, 0x100, origin)
            .with_timeout(SimDuration::from_millis(timeout_ms))
            .with_expires(ts + SimDuration::from_millis(timeout_ms))
            .with_task(10, 10, Space::Kernel)
    }

    #[test]
    fn counts_and_histograms_fold_per_origin() {
        let mut log = TraceLog::new(Box::new(trace::NullSink));
        let rto = log.intern("tcp:rto");
        let wdt = log.intern("app:watchdog");

        // rto fires 1 ms late; watchdog is cancelled.
        let armed = SimInstant::from_nanos(0) + SimDuration::from_millis(200);
        let mut t = AttributionTracker::new();
        t.push_chunk(&[
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

        let table = t.finish(log.strings());
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
        let mut log = TraceLog::new(Box::new(trace::NullSink));
        let o = log.intern("vista:wait");
        let mut t = AttributionTracker::new();
        let ts = SimInstant::from_nanos(10);
        t.push_chunk(&[
            Event::new(ts, EventKind::WaitSatisfied, 1, o),
            Event::new(ts, EventKind::WaitTimedOut, 1, o).with_expires(ts),
        ]);
        let table = t.finish(log.strings());
        assert_eq!(table.rows[0].cancels, 1);
        assert_eq!(table.rows[0].expirations, 1);
        assert_eq!(table.rows[0].slack_ns.count(), 1);
    }
}
