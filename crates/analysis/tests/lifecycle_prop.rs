//! Property tests on the lifecycle reconstructor and the full analyzer:
//! arbitrary event streams must never break the pipeline's invariants.

use analysis::lifecycle::LifecycleTracker;
use analysis::{AnalyzerConfig, Outcome, TraceAnalyzer};
use proptest::prelude::*;
use simtime::fasthash::FoldSet;
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, Space, StringTable};

#[derive(Debug, Clone)]
struct RawEvent {
    ts_ms: u64,
    kind_sel: u8,
    timer: u64,
    timeout_ms: Option<u64>,
    pid: u32,
    user: bool,
}

fn arb_event() -> impl Strategy<Value = RawEvent> {
    (
        0u64..100_000,
        0u8..6,
        0u64..16,
        proptest::option::of(0u64..60_000),
        0u32..4,
        any::<bool>(),
    )
        .prop_map(|(ts_ms, kind_sel, timer, timeout_ms, pid, user)| RawEvent {
            ts_ms,
            kind_sel,
            timer,
            timeout_ms,
            pid,
            user,
        })
}

fn build(raw: &RawEvent, ts_ms: u64) -> Event {
    let kind = match raw.kind_sel {
        0 => EventKind::Init,
        1 | 2 => EventKind::Set,
        3 => EventKind::Cancel,
        4 => EventKind::Expire,
        _ => EventKind::WaitSatisfied,
    };
    let mut e = Event::new(
        SimInstant::BOOT + SimDuration::from_millis(ts_ms),
        kind,
        raw.timer,
        raw.pid,
    )
    .with_task(
        raw.pid,
        raw.pid,
        if raw.user { Space::User } else { Space::Kernel },
    );
    if let Some(ms) = raw.timeout_ms {
        e = e.with_timeout(SimDuration::from_millis(ms));
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lifecycle_invariants_hold(raws in proptest::collection::vec(arb_event(), 0..400)) {
        let mut lt = LifecycleTracker::new();
        let mut clock = 0u64;
        let mut open_model: FoldSet<u64> = FoldSet::default();
        let mut seen_model: FoldSet<u64> = FoldSet::default();
        for raw in &raws {
            // Timestamps monotone (traces are ordered).
            clock += raw.ts_ms % 50;
            let e = build(raw, clock);
            let (sample, _) = lt.push(&e);
            seen_model.insert(e.timer);
            // Model the open set alongside.
            match e.kind {
                EventKind::Set => {
                    let was_open = open_model.contains(&e.timer);
                    open_model.insert(e.timer);
                    prop_assert_eq!(sample.is_some(), was_open);
                    if let Some(s) = sample {
                        prop_assert_eq!(s.outcome, Outcome::Reset);
                    }
                }
                EventKind::Cancel | EventKind::WaitSatisfied => {
                    let was_open = open_model.remove(&e.timer);
                    prop_assert_eq!(sample.is_some(), was_open);
                    if let Some(s) = sample {
                        prop_assert_eq!(s.outcome, Outcome::Canceled);
                    }
                }
                EventKind::Expire | EventKind::WaitTimedOut => {
                    let was_open = open_model.remove(&e.timer);
                    prop_assert_eq!(sample.is_some(), was_open);
                }
                EventKind::Init => prop_assert!(sample.is_none()),
            }
            // Every emitted sample runs forward in time.
            if let Some(s) = sample {
                prop_assert!(s.end_ts >= s.set_ts);
            }
            prop_assert_eq!(lt.open_count(), open_model.len());
            // Every event's address is a timer, whatever its kind.
            prop_assert_eq!(lt.timer_count(), seen_model.len());
        }
        prop_assert!(lt.peak_concurrency() >= lt.open_count());
    }

    #[test]
    fn analyzer_never_panics_and_stays_consistent(
        raws in proptest::collection::vec(arb_event(), 0..400)
    ) {
        let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::linux());
        let mut clock = 0u64;
        let mut expected = 0u64;
        for raw in &raws {
            clock += raw.ts_ms % 50;
            analyzer.push(&build(raw, clock));
            expected += 1;
        }
        let report = analyzer.finish(&StringTable::new());
        prop_assert_eq!(report.summary.accesses, expected);
        // Scatter points obey the cut-off and value rows the 2 % rule.
        for p in &report.scatter {
            prop_assert!(p.percent <= 250.0 + 1e-9);
        }
        for row in &report.values_all {
            prop_assert!(row.percent >= 2.0);
        }
        prop_assert!(report.values_all_coverage <= 100.0 + 1e-6);
        // The summary decomposes.
        let s = &report.summary;
        prop_assert_eq!(s.accesses, s.user_space + s.kernel);
    }
}
