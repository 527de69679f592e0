//! The million-connection Apache run, scaled for CI.
//!
//! The `ApacheScale` workload holds ~10⁶ concurrent connections — one
//! keepalive watchdog plus one TCP retransmit timer each — on the
//! kernel's native timer base. CI runs a scaled-down population that
//! still crosses the 2¹⁶ boundary; set `MILLION_CONN_FULL=1` to run the
//! full million (about 500 simulated seconds).
//!
//! What the smoke pins down, at either scale:
//! - the run builds exactly its target population and drains it — zero
//!   leaked timers, expressed as the conservation identity
//!   `schedules == cancels + expirations + still-pending`;
//! - activity waves re-arm live watchdogs while keeping every connection
//!   alive (no watchdog closes, no retransmit giveups);
//! - the streaming analysis path keeps its bounded-memory guarantee at
//!   this scale (`analysis_resident_events_high_watermark` never exceeds
//!   one chunk).

use simtime::SimDuration;
use telemetry::{SimCounter, SimGauge};
use timerstudy::experiment::ANALYSIS_CHUNK_EVENTS;
use timerstudy::{ExperimentSpec, Os};
use trace::NullSink;
use workloads::linux::apache::connection_target;
use workloads::Workload;

const SEED: u64 = 7;

/// CI population: 40 s × 2000 conn/s = 80 000 connections, past the
/// 16-bit boundary. The full run is 500 s → 1 000 000.
fn smoke_duration() -> SimDuration {
    if std::env::var("MILLION_CONN_FULL").is_ok_and(|v| v == "1") {
        SimDuration::from_secs(500)
    } else {
        SimDuration::from_secs(40)
    }
}

#[test]
fn mass_population_builds_and_drains_clean() {
    let duration = smoke_duration();
    let target = connection_target(duration);
    assert!(
        target > u64::from(u16::MAX),
        "the smoke population must cross 2^16 connections"
    );

    let (kernel, metrics) = telemetry::sim::scoped(|| {
        workloads::run_linux(Workload::ApacheScale, SEED, duration, Box::new(NullSink))
    });

    // The population reached its target and every connection survived
    // to the close wave: nothing idled past its watchdog, nothing
    // exhausted its retransmit budget, and the drain closed everything.
    let mass = kernel.mass_table();
    assert_eq!(mass.opened_total(), target);
    assert_eq!(mass.watchdog_closes(), 0, "a wave gap outlived a watchdog");
    assert_eq!(mass.rto_giveups(), 0, "a connection exhausted its RTO");
    assert_eq!(mass.open_count(), 0, "the close wave leaked connections");

    // Zero leaked timers, as conservation: every
    // schedule is matched by a cancel, an expiration, or a timer still
    // legitimately pending (background kernel/LAN population only —
    // the mass table's own timers are all cancelled by the drain).
    let schedules = metrics.counter(SimCounter::WheelSchedules);
    let cancels = metrics.counter(SimCounter::WheelCancels);
    let expirations = metrics.counter(SimCounter::WheelExpirations);
    let pending = kernel.timer_base().pending_count() as u64;
    assert_eq!(
        schedules,
        cancels + expirations + pending,
        "timer leak: {schedules} schedules vs {cancels} cancels + \
         {expirations} expirations + {pending} pending"
    );
    assert!(
        schedules > 2 * target,
        "the mass population's timer traffic must dominate the run"
    );
}

#[test]
fn streaming_analysis_stays_bounded_at_scale() {
    // The full experiment pipeline (workload → streaming analyzer →
    // report) at a population past 2¹⁶: the resident buffer must stay
    // chunk-bounded no matter how many events the mass population emits.
    let duration = SimDuration::from_secs(40);
    let spec = ExperimentSpec::new(Os::Linux, Workload::ApacheScale, duration, SEED);
    let result = timerstudy::experiment::run_experiment(spec);
    let peak = result.metrics.gauge(SimGauge::AnalysisResidentEventsHigh);
    assert!(peak > 0, "the analyzer saw no events");
    assert!(
        peak <= ANALYSIS_CHUNK_EVENTS as u64,
        "streaming analysis exceeded its chunk bound: {peak}"
    );
    assert!(result.records > 0);
}
