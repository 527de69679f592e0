//! The observability layer of the reproduction.
//!
//! The paper's contribution *is* instrumentation (relayfs on Linux, ETW
//! on Vista) — this crate instruments the instrumentation. Every metric
//! belongs to exactly one of two planes, and the split is the central
//! contract of the whole layer:
//!
//! * **Sim plane** ([`sim`]) — values derived only from virtual time and
//!   event counts (wheel cascades, trace records, retransmits, virtual
//!   nanoseconds advanced). These are pure functions of an experiment's
//!   spec, recorded into a thread-local accumulator while the experiment
//!   runs and snapshotted per run. They are **bit-identical** across
//!   serial, parallel and cached execution, which the differential test
//!   `tests/mode_matrix.rs` enforces.
//! * **Wall plane** ([`span`](mod@span), [`chrome`]) — wall-clock span
//!   intervals (`std::time::Instant`), kept once, in the capture buffer
//!   of [`chrome`] while `repro_all --metrics` runs. The Chrome trace and
//!   the run report's per-name span statistics are both built from that
//!   one record. These describe *this process*, legitimately differ
//!   between runs and modes, and are explicitly excluded from all
//!   determinism checks.
//!
//! Both planes are exported together by [`report::RunReport`] as JSON;
//! [`json`] carries the minimal parser the run-report schema validation
//! (and CI drift check) is built on.

pub mod attr;
pub mod chrome;
pub mod hist;
pub mod json;
pub mod report;
pub mod sim;
pub mod span;

pub use attr::{OriginRow, OriginTable};
pub use chrome::SpanStat;
pub use hist::LogHistogram;
pub use report::{stage_summary_line, ExperimentMetrics, RunReport};
pub use sim::{SimCounter, SimGauge, SimHist, SimSnapshot};
pub use span::{span, SpanGuard};

use std::sync::atomic::{AtomicBool, Ordering};

/// Whether telemetry recording is enabled (default: yes).
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Globally enables or disables sim-plane recording.
///
/// Disabling is the "uninstrumented" baseline the
/// `telemetry_overhead_smoke` test of the `timerstudy` crate compares
/// against: hot-path recording calls become a single relaxed load, and
/// the analysis fold counts no per-origin attribution. Spans follow
/// [`chrome::set_capture`] instead, and the plain counters behind
/// component getters (e.g. `RingBuffer::dropped`) keep counting
/// regardless.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether sim-plane recording is currently enabled.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Serialises unit tests around the process-wide recording switch: run
/// concurrently, a test that switches recording off would silently drop
/// what another test records and then asserts on.
#[cfg(test)]
pub(crate) mod switch_lock {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static SWITCH: RwLock<()> = RwLock::new(());

    /// Held by a test that switches recording off and back on.
    pub(crate) fn flips_recording() -> RwLockWriteGuard<'static, ()> {
        SWITCH.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Held by a test while it records what it asserts on.
    pub(crate) fn needs_recording() -> RwLockReadGuard<'static, ()> {
        SWITCH.read().unwrap_or_else(PoisonError::into_inner)
    }
}
