//! The wall plane's one record: captured span intervals, exported as a
//! Chrome trace and folded into run-report span statistics.
//!
//! Every completed [`crate::span()`] lands here as one timestamped
//! interval on its thread's track, and everything the wall plane reports
//! is derived from that buffer: [`export_json`] serializes it as Chrome
//! trace-event JSON (the `traceEvents` array Perfetto and
//! `chrome://tracing` load), and [`span_stats`] folds it into the
//! per-name count, total, min and max a run report carries.
//!
//! Capture is off by default, and a span then costs one relaxed atomic
//! load; `repro_all --metrics` switches it on for the duration of the
//! run and writes `run_trace.chrome.json` next to the run report.
//! Everything here is strictly wall-plane: timelines describe *this
//! process* and are excluded from every determinism check.
//!
//! # Serialization shape
//!
//! Every captured interval becomes a `B`/`E` pair on its recording
//! thread's track. Within one thread the events are sorted by timestamp
//! with ties broken so nesting always balances: at equal timestamps,
//! `E` events close inner spans first (larger start first) and `B`
//! events open outer spans first (larger end first). Zero-length
//! intervals are widened to 1 ns at capture so a span's `B` always sorts
//! before its own `E`. One `M` (metadata) event per thread carries its
//! name. `validate_report --chrome` checks balance and per-track
//! timestamp monotonicity.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::escape;

static CAPTURE: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// One captured span interval.
#[derive(Debug, Clone)]
struct SpanRec {
    name: String,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct Buffer {
    spans: Vec<SpanRec>,
    /// `(tid, name)` pairs registered via [`register_thread_name`].
    threads: Vec<(u64, String)>,
}

fn buffer() -> &'static Mutex<Buffer> {
    static BUF: OnceLock<Mutex<Buffer>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Buffer::default()))
}

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// The calling thread's small integer track id.
pub fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// Switches timestamped span capture on or off. Enabling pins the trace
/// epoch (time zero) at the first call.
pub fn set_capture(on: bool) {
    if on {
        EPOCH.get_or_init(Instant::now);
    }
    CAPTURE.store(on, Ordering::Relaxed);
}

/// Whether span intervals are currently being captured.
#[inline]
pub fn capture_enabled() -> bool {
    CAPTURE.load(Ordering::Relaxed)
}

/// Nanoseconds since the trace epoch (0 before capture was ever enabled
/// or for instants predating it).
fn since_epoch(at: Instant) -> u64 {
    match EPOCH.get() {
        Some(epoch) => at
            .checked_duration_since(*epoch)
            .map(|d| d.as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0),
        None => 0,
    }
}

/// Names the calling thread's track in the exported trace.
pub fn register_thread_name(name: &str) {
    let tid = current_tid();
    let mut buf = buffer().lock().unwrap();
    if !buf.threads.iter().any(|(t, _)| *t == tid) {
        buf.threads.push((tid, name.to_string()));
    }
}

/// Records one completed span interval on the calling thread's track.
/// No-op unless capture is enabled.
pub fn record_span(name: &str, start: Instant, end: Instant) {
    if !capture_enabled() {
        return;
    }
    let start_ns = since_epoch(start);
    // Widen zero-length intervals so B sorts strictly before E.
    let end_ns = since_epoch(end).max(start_ns + 1);
    let rec = SpanRec {
        name: name.to_string(),
        tid: current_tid(),
        start_ns,
        end_ns,
    };
    buffer().lock().unwrap().spans.push(rec);
}

/// Number of span intervals captured so far.
pub fn captured_len() -> usize {
    buffer().lock().unwrap().spans.len()
}

/// Wall-clock statistics of one span name, folded from its captured
/// intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of captured intervals.
    pub count: u64,
    /// Total length of the intervals, in nanoseconds.
    pub total_ns: u64,
    /// Shortest interval, in nanoseconds.
    pub min_ns: u64,
    /// Longest interval, in nanoseconds.
    pub max_ns: u64,
}

/// Per-name statistics of every span interval captured so far.
pub fn span_stats() -> BTreeMap<String, SpanStat> {
    let buf = buffer()
        .lock()
        .expect("a thread panicked while capturing a span");
    let mut stats: BTreeMap<String, SpanStat> = BTreeMap::new();
    for span in &buf.spans {
        let ns = span.end_ns - span.start_ns;
        match stats.get_mut(&span.name) {
            Some(stat) => {
                stat.count += 1;
                stat.total_ns = stat.total_ns.saturating_add(ns);
                stat.min_ns = stat.min_ns.min(ns);
                stat.max_ns = stat.max_ns.max(ns);
            }
            None => {
                let first = SpanStat {
                    count: 1,
                    total_ns: ns,
                    min_ns: ns,
                    max_ns: ns,
                };
                stats.insert(span.name.clone(), first);
            }
        }
    }
    stats
}

/// Discards everything captured so far (tests).
pub fn reset() {
    let mut buf = buffer().lock().unwrap();
    buf.spans.clear();
    buf.threads.clear();
}

/// Serializes everything captured so far as Chrome trace-event JSON.
pub fn export_json() -> String {
    let buf = buffer().lock().unwrap();
    let mut spans = buf.spans.clone();
    let threads = buf.threads.clone();
    drop(buf);

    // Per-thread sort on (ts, phase, nesting tie-breaks); the global
    // vector keeps threads contiguous so each track reads top to bottom.
    #[derive(Debug)]
    enum Ev {
        Begin { name: String, ts: u64, end: u64 },
        End { name: String, ts: u64, start: u64 },
    }
    spans.sort_by_key(|s| (s.tid, s.start_ns, s.end_ns));
    let mut events: Vec<(u64, Ev)> = Vec::with_capacity(spans.len() * 2);
    for s in spans {
        events.push((
            s.tid,
            Ev::Begin {
                name: s.name.clone(),
                ts: s.start_ns,
                end: s.end_ns,
            },
        ));
        events.push((
            s.tid,
            Ev::End {
                name: s.name,
                ts: s.end_ns,
                start: s.start_ns,
            },
        ));
    }
    events.sort_by(|(atid, a), (btid, b)| {
        atid.cmp(btid).then_with(|| {
            let (ats, bts) = (ev_ts(a), ev_ts(b));
            ats.cmp(&bts)
                .then_with(|| ev_phase_rank(a).cmp(&ev_phase_rank(b)))
                .then_with(|| ev_tiebreak(b).cmp(&ev_tiebreak(a)))
        })
    });
    fn ev_ts(e: &Ev) -> u64 {
        match e {
            Ev::Begin { ts, .. } | Ev::End { ts, .. } => *ts,
        }
    }
    // At one timestamp, close spans before opening new ones.
    fn ev_phase_rank(e: &Ev) -> u8 {
        match e {
            Ev::End { .. } => 0,
            Ev::Begin { .. } => 1,
        }
    }
    // Among same-ts Ends: inner (later start) first. Among same-ts
    // Begins: outer (later end) first. Both are "larger key first".
    fn ev_tiebreak(e: &Ev) -> u64 {
        match e {
            Ev::End { start, .. } => *start,
            Ev::Begin { end, .. } => *end,
        }
    }

    let mut out = String::with_capacity(events.len() * 96 + 1024);
    out.push_str("{\"traceEvents\": [\n");
    let mut first = true;
    let mut push_event = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (tid, name) in &threads {
        push_event(
            format!(
                "  {{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, \"tid\": {tid}, \
                 \"args\": {{\"name\": {}}}}}",
                escape(name)
            ),
            &mut out,
        );
    }
    for (tid, ev) in &events {
        let (ph, name, ts) = match ev {
            Ev::Begin { name, ts, .. } => ("B", name, *ts),
            Ev::End { name, ts, .. } => ("E", name, *ts),
        };
        push_event(
            format!(
                "  {{\"ph\": \"{ph}\", \"name\": {}, \"pid\": 1, \"tid\": {tid}, \
                 \"ts\": {}.{:03}}}",
                escape(name),
                ts / 1_000,
                ts % 1_000
            ),
            &mut out,
        );
    }
    out.push_str("\n], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Held by every test that switches capture on or asserts on the
/// buffer: run concurrently, one test's `reset()` or captured spans
/// would land in another's assertions.
#[cfg(test)]
pub(crate) fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::time::Duration;

    fn ts_of(e: &Value) -> f64 {
        e.get("ts").and_then(Value::as_f64).unwrap()
    }

    #[test]
    // This crate sits below simtime, so the workspace hasher is out of
    // reach here.
    #[allow(clippy::disallowed_types)]
    fn capture_and_export_balance() {
        let _capture = capture_lock();
        reset();
        set_capture(true);
        register_thread_name("chrome-test-main");
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(10);
        let t2 = t0 + Duration::from_micros(20);
        // Outer span enclosing an inner one sharing its end instant.
        record_span("outer", t0, t2);
        record_span("inner", t1, t2);
        // Zero-length span must widen rather than emit E before B.
        record_span("instant", t1, t1);
        set_capture(false);

        let text = export_json();
        let v = parse(&text).expect("chrome trace parses as JSON");
        let events = v
            .get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array");

        // Balanced per tid, monotone non-decreasing ts per tid.
        use std::collections::HashMap;
        let mut depth: HashMap<u64, i64> = HashMap::new();
        let mut last_ts: HashMap<u64, f64> = HashMap::new();
        for e in events {
            let ph = e.get("ph").and_then(Value::as_str).unwrap();
            if ph == "M" {
                continue;
            }
            assert!(ph == "B" || ph == "E", "unexpected phase {ph}");
            let tid = e.get("tid").and_then(Value::as_u64).unwrap();
            let ts = ts_of(e);
            let prev = last_ts.entry(tid).or_insert(0.0);
            assert!(ts >= *prev, "ts must be monotone per tid");
            *prev = ts;
            let d = depth.entry(tid).or_insert(0);
            *d += if ph == "B" { 1 } else { -1 };
            assert!(*d >= 0, "E without matching B");
        }
        assert!(depth.values().all(|&d| d == 0), "unbalanced B/E events");
        assert!(text.contains("chrome-test-main"));
        reset();
    }

    #[test]
    fn capture_off_records_nothing() {
        let _capture = capture_lock();
        reset();
        set_capture(false);
        record_span("ignored", Instant::now(), Instant::now());
        assert_eq!(captured_len(), 0);
    }
}
