//! The process-wide telemetry switch gates the attribution fold.
//!
//! Turning recording off drops whatever any other test in the same
//! process folds meanwhile, so this test lives in an integration-test
//! binary of its own: it runs in its own process.

use analysis::attribution::AttributionTracker;
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, Space, TraceLog};

#[test]
fn disabled_telemetry_records_nothing() {
    let mut log = TraceLog::new(Box::new(trace::NullSink));
    let origin = log.intern("x");
    let timeout = SimDuration::from_millis(1);
    let set = Event::new(SimInstant::BOOT, EventKind::Set, 0x100, origin)
        .with_timeout(timeout)
        .with_expires(SimInstant::BOOT + timeout)
        .with_task(10, 10, Space::Kernel);

    let mut tracker = AttributionTracker::new();
    telemetry::set_enabled(false);
    tracker.push_chunk(&[set, set]);
    telemetry::set_enabled(true);
    assert_eq!(tracker.origin_count(), 0);

    // Recording again, the same events fold.
    tracker.push_chunk(&[set]);
    assert_eq!(tracker.origin_count(), 1);
}
