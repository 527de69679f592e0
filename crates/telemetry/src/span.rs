//! Lightweight wall-clock span timing.
//!
//! A span is a named `Instant::now()` pair recorded into the global
//! registry on drop. Spans are strictly wall-plane: they exist to show
//! where a run spends real time (per-stage breakdowns, worker busy time,
//! queue waits) and are excluded from every determinism check.

use std::time::Instant;

use crate::registry::global;

/// An in-flight span; records its elapsed time when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    name: &'static str,
    start: Option<Instant>,
}

impl SpanGuard {
    /// Elapsed nanoseconds so far (0 when telemetry was disabled at
    /// creation).
    pub fn elapsed_ns(&self) -> u64 {
        self.start
            .map(|s| s.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64)
            .unwrap_or(0)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            let ns = end
                .duration_since(start)
                .as_nanos()
                .min(u128::from(u64::MAX)) as u64;
            global().record_span_ns(self.name, ns);
            if crate::chrome::capture_enabled() {
                crate::chrome::record_span(self.name, start, end);
            }
        }
    }
}

/// Opens a span; the returned guard records on drop.
///
/// When telemetry is globally disabled the guard is inert — no clock
/// read, no registry write — which is what the overhead benchmark's
/// uninstrumented baseline measures.
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard {
        name,
        start: crate::enabled().then(Instant::now),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let _on = crate::switch_lock::needs_recording();
        {
            let _g = span("test.span_records");
        }
        let snap = global().wall_snapshot();
        let s = snap.spans.get("test.span_records").unwrap();
        assert!(s.count >= 1);
    }

    #[test]
    fn disabled_span_is_inert() {
        let _switch = crate::switch_lock::flips_recording();
        crate::set_enabled(false);
        let g = span("test.span_disabled");
        assert_eq!(g.elapsed_ns(), 0);
        drop(g);
        crate::set_enabled(true);
        let snap = global().wall_snapshot();
        assert!(!snap.spans.contains_key("test.span_disabled"));
    }
}
