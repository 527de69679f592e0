//! Degradation-tolerance property tests: the lifecycle reconstructor and
//! the pattern classifier under random event-*drop* masks (the fault
//! plane's ring-overflow model).
//!
//! The contract with [`trace::FaultSink`]: a lossy trace is a subsequence
//! of the clean one, and the analysis must degrade monotonically — fewer
//! reconstructed episodes, never fabricated or double-counted ones. The
//! masks are *nested* (each drop level discards a superset of the events
//! the previous level discarded), which is what makes "more drops → no
//! new episodes, no new clusters" a provable invariant rather than a
//! statistical tendency.

use analysis::lifecycle::LifecycleTracker;
use analysis::{AnalyzerConfig, TraceAnalyzer};
use proptest::prelude::*;
use simtime::fasthash::{FoldMap, FoldSet};
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, Space, StringTable};

#[derive(Debug, Clone)]
struct RawEvent {
    ts_step: u64,
    kind_sel: u8,
    timer: u64,
    timeout_ms: Option<u64>,
    pid: u32,
    user: bool,
    /// Drop severity: the event is dropped at every drop level above this.
    severity: u8,
}

fn arb_event() -> impl Strategy<Value = RawEvent> {
    (
        0u64..50,
        0u8..6,
        0u64..12,
        proptest::option::of(1u64..60_000),
        0u32..4,
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(
            |(ts_step, kind_sel, timer, timeout_ms, pid, user, severity)| RawEvent {
                ts_step,
                kind_sel,
                timer,
                timeout_ms,
                pid,
                user,
                severity,
            },
        )
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

/// Materialises the stream surviving one drop level: an event survives
/// while its severity is at or below the level's keep threshold, so a
/// lower threshold keeps a subset of a higher one's events.
fn surviving(raws: &[RawEvent], keep_at_most: u8) -> Vec<Event> {
    let mut clock = 0u64;
    let mut events = Vec::new();
    for raw in raws {
        clock += raw.ts_step;
        if raw.severity <= keep_at_most {
            events.push(build(raw, clock));
        }
    }
    events
}

/// Nested keep thresholds, strongest drops last. 255 keeps everything.
const LEVELS: [u8; 5] = [255, 192, 128, 64, 0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Under every drop level: no panics, every emitted sample is backed
    /// by exactly one surviving `Set` (no double-counting), and the
    /// orphan counter accounts for precisely the end events that matched
    /// nothing.
    #[test]
    fn drops_never_fabricate_or_double_count(
        raws in proptest::collection::vec(arb_event(), 0..400)
    ) {
        for keep in LEVELS {
            let events = surviving(&raws, keep);
            let mut lt = LifecycleTracker::new();
            let mut samples = 0u64;
            let mut sets_per_addr: FoldMap<u64, u64> = FoldMap::default();
            let mut samples_per_addr: FoldMap<u64, u64> = FoldMap::default();
            let mut end_events = 0u64;
            for e in &events {
                match e.kind {
                    EventKind::Set => *sets_per_addr.entry(e.timer).or_insert(0) += 1,
                    EventKind::Init => {}
                    _ => end_events += 1,
                }
                if let Some(s) = lt.push(e).0 {
                    samples += 1;
                    *samples_per_addr.entry(e.timer).or_insert(0) += 1;
                    prop_assert!(s.end_ts >= s.set_ts, "episode runs backwards");
                }
            }
            // A sample closes a Set; a Set closes at most once.
            for (addr, n) in &samples_per_addr {
                prop_assert!(
                    n <= sets_per_addr.get(addr).unwrap_or(&0),
                    "addr {addr} double-counted: {n} episodes"
                );
            }
            // Sets either close, stay open, or were never seen — and every
            // unmatched end is an orphan, nothing silently vanishes.
            let sets: u64 = sets_per_addr.values().sum();
            prop_assert!(samples <= sets, "more episodes than surviving sets");
            prop_assert_eq!(
                lt.orphan_ends() + (samples - resets(&events)),
                end_events,
                "orphans + end-closed episodes must equal end events"
            );
        }
    }

    /// Nested drop masks degrade monotonically: episode count, classified
    /// cluster count, and summary accesses never *increase* as more of
    /// the trace is lost.
    #[test]
    fn nested_drops_degrade_monotonically(
        raws in proptest::collection::vec(arb_event(), 0..400)
    ) {
        let mut prev_episodes = u64::MAX;
        let mut prev_clusters = u64::MAX;
        let mut prev_accesses = u64::MAX;
        for keep in LEVELS {
            let events = surviving(&raws, keep);
            let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::linux());
            let mut lt = LifecycleTracker::new();
            let mut episodes = 0u64;
            for e in &events {
                analyzer.push(e);
                if lt.push(e).0.is_some() {
                    episodes += 1;
                }
            }
            let report = analyzer.finish(&StringTable::new());
            let accesses = report.summary.accesses;
            prop_assert!(episodes <= prev_episodes,
                "episodes grew under heavier drops: {episodes} > {prev_episodes}");
            prop_assert!(report.pattern_mix.total <= prev_clusters,
                "clusters grew under heavier drops: {} > {prev_clusters}",
                report.pattern_mix.total);
            prop_assert!(accesses <= prev_accesses);
            // Summary still decomposes exactly on a lossy trace.
            let s = &report.summary;
            prop_assert_eq!(s.accesses, s.user_space + s.kernel);
            prev_episodes = episodes;
            prev_clusters = report.pattern_mix.total;
            prev_accesses = accesses;
        }
    }
}

/// Counts episodes closed by a re-`Set` (rather than an end event) in a
/// replay of `events` — the bookkeeping mirror of the tracker's Reset
/// outcome, used to reconcile end-event accounting.
fn resets(events: &[Event]) -> u64 {
    let mut open: FoldSet<u64> = FoldSet::default();
    let mut resets = 0u64;
    for e in events {
        match e.kind {
            EventKind::Set => {
                if !open.insert(e.timer) {
                    resets += 1;
                }
            }
            EventKind::Init => {}
            _ => {
                open.remove(&e.timer);
            }
        }
    }
    resets
}
