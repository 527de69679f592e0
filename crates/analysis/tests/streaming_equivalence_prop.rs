//! Streaming-equivalence property: chunked delivery through
//! [`TraceAnalyzer::push_chunk`] must produce byte-identical reports to
//! per-event delivery and to one whole-trace pass, for arbitrary event
//! sequences — including traces with injected drops (orphan ends) and
//! locally non-monotonic timestamps (the out-of-order paths the
//! countdown/classify bugfixes guard). Chunk boundaries are an
//! implementation detail; they must never leak into `FigureData`.

use analysis::{AnalyzerConfig, TraceAnalyzer};
use proptest::prelude::*;
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, Space, StringTable};

#[derive(Debug, Clone)]
struct RawEvent {
    ts_step: u64,
    /// Milliseconds this event's stamp lags the logical clock — produces
    /// backwards/duplicated timestamps when nonzero.
    back_jitter: u8,
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
        0u8..20,
        0u8..6,
        0u64..12,
        proptest::option::of(1u64..60_000),
        0u32..4,
        any::<bool>(),
        any::<u8>(),
    )
        .prop_map(
            |(ts_step, back_jitter, kind_sel, timer, timeout_ms, pid, user, severity)| RawEvent {
                ts_step,
                back_jitter,
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

/// Materialises the stream surviving one drop level (severities above the
/// threshold are lost, manufacturing orphan ends), with each surviving
/// event stamped behind the logical clock by its jitter.
fn surviving(raws: &[RawEvent], keep_at_most: u8) -> Vec<Event> {
    let mut clock = 0u64;
    let mut events = Vec::new();
    for raw in raws {
        clock += raw.ts_step;
        if raw.severity <= keep_at_most {
            events.push(build(raw, clock.saturating_sub(raw.back_jitter as u64)));
        }
    }
    events
}

/// Everything kept, a lossy middle level, and only severity-0 survivors.
const LEVELS: [u8; 3] = [255, 96, 0];
const CHUNKS: [usize; 4] = [1, 7, 64, 4096];

/// The report after feeding `events` in chunks of `chunk` events, or in
/// one whole-trace chunk when `chunk` is `None`.
fn report_of(events: &[Event], cfg: AnalyzerConfig, chunk: Option<usize>) -> String {
    let mut analyzer = TraceAnalyzer::new(cfg);
    match chunk {
        Some(chunk) => events.chunks(chunk).for_each(|c| analyzer.push_chunk(c)),
        None => analyzer.push_chunk(events),
    }
    serde_json::to_string(&analyzer.finish(&StringTable::new())).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Per-event, chunked (several sizes) and whole-trace delivery are
    /// indistinguishable in the final report, on both cluster modes,
    /// at every drop level.
    #[test]
    fn chunking_is_invisible_in_figure_data(
        raws in proptest::collection::vec(arb_event(), 0..400)
    ) {
        for keep in LEVELS {
            let events = surviving(&raws, keep);
            for cfg in [AnalyzerConfig::linux(), AnalyzerConfig::vista()] {
                let baseline = report_of(&events, cfg.clone(), Some(1));
                let whole = report_of(&events, cfg.clone(), None);
                prop_assert_eq!(&baseline, &whole, "whole-trace pass diverged");
                for chunk in CHUNKS {
                    let chunked = report_of(&events, cfg.clone(), Some(chunk));
                    prop_assert_eq!(&baseline, &chunked, "chunk {} diverged", chunk);
                }
            }
        }
    }
}
