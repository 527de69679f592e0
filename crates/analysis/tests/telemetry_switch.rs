//! The process-wide telemetry switch gates the attribution counts.
//!
//! Turning recording off drops whatever any other test in the same
//! process attributes meanwhile, so this test lives in an integration-test
//! binary of its own: it runs in its own process.

use analysis::{AnalyzerConfig, Report, TraceAnalyzer};
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, Space, StringTable};

/// Folds each chunk with recording switched as given, then finishes.
fn analyze(strings: &StringTable, chunks: &[(bool, &[Event])]) -> Report {
    let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::linux());
    for &(recording, chunk) in chunks {
        telemetry::set_enabled(recording);
        analyzer.push_chunk(chunk);
        telemetry::set_enabled(true);
    }
    analyzer.finish(strings)
}

#[test]
fn disabled_telemetry_records_nothing() {
    let mut strings = StringTable::new();
    let origin = strings.intern("x");
    let timeout = SimDuration::from_millis(1);
    let set = Event::new(SimInstant::BOOT, EventKind::Set, 0x100, origin)
        .with_timeout(timeout)
        .with_expires(SimInstant::BOOT + timeout)
        .with_task(10, 10, Space::Kernel);

    let off = analyze(&strings, &[(false, &[set, set])]);
    assert!(off.attribution.rows.is_empty());
    assert_eq!(off.summary.set, 2);

    // Recording again, a later event is counted, once.
    let on_again = analyze(&strings, &[(false, &[set, set]), (true, &[set])]);
    let rows = &on_again.attribution.rows;
    assert_eq!(rows.len(), 1);
    assert_eq!((rows[0].label.as_str(), rows[0].sets), ("x", 1));
    assert_eq!(rows[0].timeout_ns.count(), 1);
    // Table 1's counts see every event either way.
    assert_eq!(on_again.summary.set, 3);
    assert_eq!(on_again.summary.accesses, 3);
}
