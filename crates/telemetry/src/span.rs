//! Lightweight wall-clock span timing.
//!
//! A span is a named `Instant::now()` pair. While capture is on
//! ([`crate::chrome::set_capture`], which `repro_all --metrics` sets),
//! the guard records its interval into the capture buffer when it
//! drops; with capture off it costs one relaxed load. Spans are strictly
//! wall-plane: they exist to show where a run spends real time
//! (per-stage breakdowns, worker busy time, queue waits) and are
//! excluded from every determinism check.

use std::time::Instant;

use crate::chrome;

/// An in-flight span; records its interval when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            chrome::record_span(self.name, start, Instant::now());
        }
    }
}

/// Opens a span; the returned guard records on drop.
///
/// When capture is off the guard is inert: no clock read, no buffer
/// write.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: chrome::capture_enabled().then(Instant::now),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let _capture = chrome::capture_lock();
        chrome::reset();
        chrome::set_capture(true);
        {
            let _g = span("test.span_records");
        }
        chrome::set_capture(false);
        let stats = chrome::span_stats();
        chrome::reset();
        assert_eq!(stats["test.span_records"].count, 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _capture = chrome::capture_lock();
        chrome::reset();
        chrome::set_capture(false);
        drop(span("test.span_disabled"));
        assert_eq!(chrome::captured_len(), 0);
    }
}
